package torture

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
)

func TestCaseRegistryWellFormed(t *testing.T) {
	cs := Cases()
	if len(cs) < 8 {
		t.Fatalf("registry has %d cases, want the full primitive × flavor matrix", len(cs))
	}
	seen := map[string]bool{}
	prims := map[string]bool{}
	for _, c := range cs {
		if seen[c.Name] {
			t.Errorf("duplicate case %q", c.Name)
		}
		seen[c.Name] = true
		prim, _, ok := strings.Cut(c.Name, "/")
		if !ok {
			t.Errorf("case %q is not primitive/flavor", c.Name)
		}
		prims[prim] = true
		if c.Desc == "" || c.run == nil {
			t.Errorf("case %q missing desc or body", c.Name)
		}
	}
	for _, p := range []string{"mutex", "rwmutex", "counter", "fetchop"} {
		if !prims[p] {
			t.Errorf("no case tortures %s", p)
		}
	}
}

// TestReproDeterministic pins the replay contract: deriving the same
// run twice yields byte-identical artifacts, and an artifact survives a
// decode/encode round trip unchanged.
func TestReproDeterministic(t *testing.T) {
	for _, c := range Cases() {
		r1, err := NewRepro(c.Name, experiments.DefaultSeed, 4, 100)
		if err != nil {
			t.Fatal(err)
		}
		r2, _ := NewRepro(c.Name, experiments.DefaultSeed, 4, 100)
		b1, err := r1.Encode()
		if err != nil {
			t.Fatal(err)
		}
		b2, _ := r2.Encode()
		if !bytes.Equal(b1, b2) {
			t.Fatalf("%s: two derivations differ:\n%s\n----\n%s", c.Name, b1, b2)
		}
		dec, err := DecodeRepro(b1)
		if err != nil {
			t.Fatalf("%s: decode: %v", c.Name, err)
		}
		b3, err := dec.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1, b3) {
			t.Fatalf("%s: decode/encode round trip changed the artifact", c.Name)
		}
	}
}

// TestPRNGIsSplitMix64: the op stream is SplitMix64, checked against its
// published first output from state 0.
func TestPRNGIsSplitMix64(t *testing.T) {
	if got := (&prng{}).next(); got != 0xe220a8397b1dcdaf {
		t.Fatalf("first output from state 0 = %#x, want SplitMix64's 0xe220a8397b1dcdaf", got)
	}
}

func TestReproSeedsDistinctAcrossCases(t *testing.T) {
	seeds := map[uint64]string{}
	for _, c := range Cases() {
		r, err := NewRepro(c.Name, experiments.DefaultSeed, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := seeds[r.Seed]; dup {
			t.Errorf("cases %q and %q share seed %#x", prev, c.Name, r.Seed)
		}
		seeds[r.Seed] = c.Name
	}
}

func TestDecodeReproRejectsMalformedArtifacts(t *testing.T) {
	good, err := NewRepro("mutex/flip-storm", 1, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	gb, _ := good.Encode()
	for _, tc := range []struct {
		name    string
		mangle  func(s string) string
		wantErr string
	}{
		{"version", func(s string) string {
			return strings.Replace(s, ReproVersion, "torture/v0", 1)
		}, "version"},
		{"case", func(s string) string {
			return strings.Replace(s, "mutex/flip-storm", "mutex/unheard-of", 1)
		}, "unknown case"},
		{"workers", func(s string) string {
			return strings.Replace(s, `"workers": 2`, `"workers": 0`, 1)
		}, "fleet shape"},
		{"schedule", func(s string) string {
			return strings.Replace(s, `"schedule"`, `"shedule"`, 1)
		}, "no fault schedule"},
		{"syntax", func(string) string { return "{" }, "bad repro"},
	} {
		if _, err := DecodeRepro([]byte(tc.mangle(string(gb)))); err == nil {
			t.Errorf("%s: mangled artifact decoded cleanly", tc.name)
		} else if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q, want it to mention %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestDecodeReproReclampsSchedule: a hand-edited artifact with an
// out-of-bounds fault rule must come back clamped, not armed verbatim.
func TestDecodeReproReclampsSchedule(t *testing.T) {
	r, err := NewRepro("mutex/flip-storm", 1, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	r.Schedule.Rules[0].Arg = 1 << 30 // way past any injection bound
	b, _ := r.Encode()
	dec, err := DecodeRepro(b)
	if err != nil {
		t.Fatal(err)
	}
	if got := dec.Schedule.Rules[0].Arg; got == 1<<30 {
		t.Fatalf("out-of-bounds rule arg survived decode: %d", got)
	}
}

// TestAllCasesShortRun executes every scenario with a small fleet —
// the same path CI's torture job takes, minus the chaos build tag
// unless the test binary was built with it.
func TestAllCasesShortRun(t *testing.T) {
	workers, ops := 4, 400
	if testing.Short() {
		ops = 100
	}
	for _, c := range Cases() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			r, err := NewRepro(c.Name, experiments.DefaultSeed, workers, ops)
			if err != nil {
				t.Fatal(err)
			}
			res := r.Run(2 * time.Minute)
			if res.Err != nil {
				art, _ := r.Encode()
				t.Fatalf("%v\nrepro artifact:\n%s", res.Err, art)
			}
			if res.Seed != r.Seed || res.Case != c.Name {
				t.Fatalf("result (%s, %#x) does not describe the run (%s, %#x)",
					res.Case, res.Seed, c.Name, r.Seed)
			}
		})
	}
}

// TestReplayReusesTheCarriedSchedule: Run must arm the artifact's
// schedule, not re-derive one — replaying an artifact whose schedule
// was edited still runs, and the descriptor reaching the runner is the
// edited one.
func TestReplayReusesTheCarriedSchedule(t *testing.T) {
	r, err := NewRepro("counter/conservation", 1234, 2, 50)
	if err != nil {
		t.Fatal(err)
	}
	r.Schedule.Rules = r.Schedule.Rules[:1] // hand-trim the schedule
	b, _ := r.Encode()
	dec, err := DecodeRepro(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Schedule.Rules) != 1 {
		t.Fatalf("replay re-derived the schedule: %d rules", len(dec.Schedule.Rules))
	}
	if res := dec.Run(time.Minute); res.Err != nil {
		t.Fatal(res.Err)
	}
}
