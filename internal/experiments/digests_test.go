package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"testing"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/registry_digests.json from this build's tables")

const registryDigestsFile = "testdata/registry_digests.json"

// TestRegistryDigestsGolden pins every registered experiment's table at
// Tiny() sizes and the default base seed to a committed SHA-256. The
// tables are simulated-cycle counts, so a change to the simulator that is
// meant to cost only host time (dispatch, allocation, data layout) must
// leave every digest alone; a change that is meant to move a table
// regenerates the file with `make sim-digests` and says so.
func TestRegistryDigestsGolden(t *testing.T) {
	if *updateDigests && testing.Short() {
		t.Fatal("-update needs every spec: run without -short")
	}
	specs := matrixSpecs()
	got := make(map[string]string, len(specs))
	for _, res := range parallelMatrix() {
		if res.Err != nil {
			t.Fatalf("%s: %v", res.Spec.Name, res.Err)
		}
		sum := sha256.Sum256([]byte(res.Table.String()))
		got[res.Spec.Name] = hex.EncodeToString(sum[:])
	}

	if *updateDigests {
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(registryDigestsFile, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	raw, err := os.ReadFile(registryDigestsFile)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", registryDigestsFile, err)
	}
	for _, s := range specs {
		switch w := want[s.Name]; {
		case w == "":
			t.Errorf("%s: no committed digest (make sim-digests)", s.Name)
		case w != got[s.Name]:
			t.Errorf("%s: table digest %s, committed %s", s.Name, got[s.Name], w)
		}
	}
	if !testing.Short() && len(want) != len(specs) {
		t.Errorf("%s pins %d specs, registry has %d", registryDigestsFile, len(want), len(specs))
	}
}
