package experiments

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/stats"
)

// tinySizes shrinks every scale knob so the whole matrix runs in test
// time. The registry's correctness properties (unique names, every
// experiment runs, serial == parallel) are size-independent.
func tinySizes() Sizes { return Tiny() }

// slowSpecs are the experiments whose cost is dominated by fixed
// iteration structure (64-processor patterns, fixed period lengths,
// fixed app problem sizes) rather than by Sizes; they are skipped under
// -short so the race-enabled CI test job stays fast.
var slowSpecs = map[string]bool{
	"fig3.17-multilock":     true,
	"fig3.21-timevary":      true,
	"fig3.22-competitive":   true,
	"fig3.23-hysteresis":    true,
	"fig3.24-fetchop-apps":  true,
	"fig3.25-spinlock-apps": true,
}

// matrixSpecs is the registry as the matrix tests run it: all of it, less
// the slow specs under -short.
func matrixSpecs() []Spec {
	var specs []Spec
	for _, s := range Default.Specs() {
		if testing.Short() && slowSpecs[s.Name] {
			continue
		}
		specs = append(specs, s)
	}
	return specs
}

// parallelMatrix is one parallel pass over matrixSpecs at tiny sizes and
// the default base seed, made once however many tests compare against it.
var parallelMatrix = sync.OnceValue(func() []Result {
	return (&Runner{Sizes: tinySizes(), Parallel: 8}).Run(matrixSpecs())
})

func TestRegistryMetadata(t *testing.T) {
	specs := Default.Specs()
	if len(specs) < 20 {
		t.Fatalf("registry has only %d specs", len(specs))
	}
	seen := make(map[string]bool)
	for _, s := range specs {
		if s.Name == "" || s.Figure == "" || s.Title == "" || s.Run == nil {
			t.Errorf("spec %+v missing metadata", s.Name)
		}
		if seen[s.Name] {
			t.Errorf("duplicate experiment name %q", s.Name)
		}
		seen[s.Name] = true
		if s.Tool != ToolReactsim && s.Tool != ToolWaitsim {
			t.Errorf("%s: unknown tool %q", s.Name, s.Tool)
		}
		for _, g := range s.Groups {
			if _, isName := Default.Lookup(g); isName {
				t.Errorf("%s: group %q shadows an experiment name", s.Name, g)
			}
		}
	}
}

func TestRegistryRejectsDuplicates(t *testing.T) {
	r := NewRegistry()
	run := func(Sizes) *stats.Table { return &stats.Table{} }
	r.Register(Spec{Name: "a", Figure: "f", Title: "t", Tool: ToolReactsim, Groups: []string{"g"}, Run: run})
	for _, bad := range []Spec{
		{Name: "a", Figure: "f", Title: "t", Tool: ToolReactsim, Run: run},                        // dup name
		{Name: "g", Figure: "f", Title: "t", Tool: ToolReactsim, Run: run},                        // name == existing alias
		{Name: "b", Figure: "f", Title: "t", Tool: ToolReactsim, Groups: []string{"a"}, Run: run}, // alias == existing name
		{Name: "", Figure: "f", Title: "t", Tool: ToolReactsim, Run: run},                         // empty name
		{Name: "c", Figure: "f", Title: "t", Tool: ToolReactsim, Run: nil},                        // nil run
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Register(%q) should have panicked", bad.Name)
				}
			}()
			r.Register(bad)
		}()
	}
}

func TestExperimentSeedDistinctAndStable(t *testing.T) {
	seen := make(map[uint64]string)
	for _, name := range Default.Names() {
		s := ExperimentSeed(DefaultSeed, name)
		if s != ExperimentSeed(DefaultSeed, name) {
			t.Fatalf("%s: seed not stable", name)
		}
		if prev, dup := seen[s]; dup {
			t.Errorf("seed collision between %s and %s", name, prev)
		}
		seen[s] = name
	}
}

func TestSelect(t *testing.T) {
	all, err := Default.Select(ToolReactsim, "all")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range all {
		if s.Tool != ToolReactsim {
			t.Errorf("tool filter leaked %s (%s)", s.Name, s.Tool)
		}
	}

	base, err := Default.Select(ToolReactsim, "baseline")
	if err != nil {
		t.Fatal(err)
	}
	if len(base) != 2 {
		t.Fatalf("baseline selected %d specs, want 2", len(base))
	}

	// A group plus a member of that group must not duplicate.
	dedup, err := Default.Select(ToolReactsim, "baseline,fig3.15-spinlocks")
	if err != nil {
		t.Fatal(err)
	}
	if len(dedup) != len(base) {
		t.Fatalf("overlapping selection produced %d specs, want %d", len(dedup), len(base))
	}

	if _, err := Default.Select(ToolReactsim, "nope"); err == nil {
		t.Error("unknown experiment should error")
	}
	// A waitsim name is invisible through the reactsim filter.
	if _, err := Default.Select(ToolReactsim, "table4.1-blocking"); err == nil {
		t.Error("cross-tool selection should error")
	}
}

// TestMatrixSerialParallelIdentical is the registry's core contract:
// every registered experiment runs, and a parallel run of the matrix is
// byte-identical to a serial run at the same base seed.
func TestMatrixSerialParallelIdentical(t *testing.T) {
	specs := matrixSpecs()
	serial := (&Runner{Sizes: tinySizes(), Parallel: 1}).Run(specs)
	parallel := parallelMatrix()
	if len(serial) != len(specs) || len(parallel) != len(specs) {
		t.Fatalf("result counts: serial %d parallel %d want %d", len(serial), len(parallel), len(specs))
	}
	for i, s := range specs {
		if serial[i].Err != nil {
			t.Errorf("%s: serial run failed: %v", s.Name, serial[i].Err)
			continue
		}
		if parallel[i].Err != nil {
			t.Errorf("%s: parallel run failed: %v", s.Name, parallel[i].Err)
			continue
		}
		if serial[i].Seed != parallel[i].Seed {
			t.Errorf("%s: seeds differ: %#x vs %#x", s.Name, serial[i].Seed, parallel[i].Seed)
		}
		got, want := parallel[i].Table.String(), serial[i].Table.String()
		if got != want {
			t.Errorf("%s: parallel output differs from serial:\n--- serial ---\n%s--- parallel ---\n%s", s.Name, want, got)
		}
		if len(serial[i].Table.Rows) == 0 {
			t.Errorf("%s: produced an empty table", s.Name)
		}
	}
}

// TestHostMillisNamesRegistered keeps the runner's dispatch costs on
// registered names: an entry left behind by a rename would silently
// demote the renamed spec to the end of the dispatch order.
func TestHostMillisNamesRegistered(t *testing.T) {
	for name := range hostMillis {
		if _, ok := Default.Lookup(name); !ok {
			t.Errorf("hostMillis names %q, which is not a registered spec", name)
		}
	}
}

func TestRunnerRecoversPanics(t *testing.T) {
	specs := []Spec{
		{Name: "ok", Figure: "f", Title: "t", Tool: ToolReactsim, Run: func(Sizes) *stats.Table {
			t := &stats.Table{Header: []string{"x"}}
			t.AddRow("1")
			return t
		}},
		{Name: "boom", Figure: "f", Title: "t", Tool: ToolReactsim, Run: func(Sizes) *stats.Table {
			panic("simulated deadlock")
		}},
	}
	results := (&Runner{Parallel: 2}).Run(specs)
	if results[0].Err != nil || results[0].Table == nil {
		t.Errorf("healthy spec should succeed: %+v", results[0].Err)
	}
	if results[1].Err == nil || !strings.Contains(results[1].Err.Error(), "simulated deadlock") {
		t.Errorf("panicking spec should surface its panic, got %v", results[1].Err)
	}
	if err := FirstErr(results); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("FirstErr should name the failed experiment, got %v", err)
	}
	var wrapped error = results[1].Err
	if wrapped == nil {
		t.Fatal("expected error")
	}
	_ = errors.Unwrap(wrapped) // must not panic
}

// TestRunnerCapturesSimulatedPanic: a panic raised inside the simulated
// machine — on an actor's stack, not the worker's — still comes back as
// that spec's Err, and the specs around it still produce their tables.
func TestRunnerCapturesSimulatedPanic(t *testing.T) {
	healthy, ok := Default.Lookup("fig3.16-prototype")
	if !ok {
		t.Fatal("fig3.16-prototype not registered")
	}
	bomb := Spec{Name: "bomb", Figure: "f", Title: "t", Tool: ToolReactsim, Run: func(sz Sizes) *stats.Table {
		m := machine.New(machine.DefaultConfig(2))
		m.SpawnCPU(0, 0, "idle", func(c *machine.CPU) { c.Actor().Park() })
		m.SpawnCPU(1, 0, "bomb", func(c *machine.CPU) {
			c.Advance(10)
			c.Actor().Wake(c.Actor(), 0) // waking an actor that is not parked panics
		})
		m.Run()
		return &stats.Table{}
	}}
	before := runtime.NumGoroutine()
	results := (&Runner{Sizes: tinySizes(), Parallel: 2}).Run([]Spec{healthy, bomb, healthy})
	if err := results[1].Err; err == nil || !strings.Contains(err.Error(), "not parked") {
		t.Errorf("panicking spec should surface the simulator's panic, got %v", err)
	}
	for _, i := range []int{0, 2} {
		if results[i].Err != nil || results[i].Table == nil || len(results[i].Table.Rows) == 0 {
			t.Errorf("spec %d beside the panicking one did not produce its table: %v", i, results[i].Err)
		}
	}
	// The Runner's workers may still be returning: give them a moment.
	for i := 0; runtime.NumGoroutine() > before; i++ {
		if i == 100 {
			t.Fatalf("%d goroutines after the run, %d before: the failed machine's actors leaked", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestWriteJSONRoundTrips(t *testing.T) {
	specs, err := Default.Select(ToolWaitsim, "table4.1,factors")
	if err != nil {
		t.Fatal(err)
	}
	sz := tinySizes()
	results := (&Runner{Sizes: sz, Parallel: 2}).Run(specs)
	var buf strings.Builder
	if err := WriteJSON(&buf, sz, results); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, s := range specs {
		if !strings.Contains(out, s.Name) {
			t.Errorf("JSON missing experiment %s:\n%s", s.Name, out)
		}
	}
	var csvBuf strings.Builder
	if err := WriteCSV(&csvBuf, results); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csvBuf.String(), "table4.1-blocking,header,action,cycles") {
		t.Errorf("CSV missing flat header record:\n%s", csvBuf.String())
	}
}
