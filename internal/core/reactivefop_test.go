package core

import (
	"sort"
	"testing"

	"repro/internal/fetchop"
	"repro/internal/machine"
)

// runFOP exercises the reactive fetch-and-op with procs processors, iters
// ops each, think time U(0, think).
func runFOP(t *testing.T, procs, iters int, think int, tune func(*ReactiveFetchOp)) (*ReactiveFetchOp, []uint64, machine.Time) {
	t.Helper()
	m := machine.New(machine.DefaultConfig(procs))
	f := NewReactiveFetchOp(m.Mem, 0, procs)
	if tune != nil {
		tune(f)
	}
	var got []uint64
	var end machine.Time
	for p := 0; p < procs; p++ {
		m.SpawnCPU(p, 0, "w", func(c *machine.CPU) {
			for i := 0; i < iters; i++ {
				got = append(got, f.FetchAdd(c, 1))
				if think > 0 {
					c.Advance(machine.Time(c.Rand().Intn(think)))
				}
			}
			if c.Now() > end {
				end = c.Now()
			}
		})
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	return f, got, end
}

func checkPerm(t *testing.T, got []uint64, n int) {
	t.Helper()
	if len(got) != n {
		t.Fatalf("%d results, want %d", len(got), n)
	}
	s := append([]uint64(nil), got...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	for i, v := range s {
		if v != uint64(i) {
			t.Fatalf("results not a permutation of 0..%d (pos %d = %d)", n-1, i, v)
		}
	}
}

func TestReactiveFOPCorrectness(t *testing.T) {
	for _, procs := range []int{1, 2, 4, 8, 16, 32} {
		f, got, _ := runFOP(t, procs, 12, 500, nil)
		checkPerm(t, got, procs*12)
		if f.Value() != uint64(procs*12) {
			t.Fatalf("final value %d, want %d", f.Value(), procs*12)
		}
	}
}

func TestReactiveFOPStaysTTSUncontended(t *testing.T) {
	f, got, _ := runFOP(t, 1, 120, 200, nil)
	checkPerm(t, got, 120)
	if f.Mode() != modeTTS {
		t.Fatalf("mode = %d after uncontended run, want TTS", f.Mode())
	}
	if f.Changes != 0 {
		t.Fatalf("%d changes during uncontended run", f.Changes)
	}
}

func TestReactiveFOPPicksQueueAtModerateContention(t *testing.T) {
	f, got, _ := runFOP(t, 8, 40, 500, nil)
	checkPerm(t, got, 320)
	if f.Mode() != modeQueue {
		t.Fatalf("mode = %d at 8-way contention, want QUEUE", f.Mode())
	}
}

func TestReactiveFOPPicksTreeAtHighContention(t *testing.T) {
	f, got, _ := runFOP(t, 32, 40, 500, nil)
	checkPerm(t, got, 32*40)
	if f.Mode() != fopTree {
		t.Fatalf("mode = %d at 32-way contention, want TREE", f.Mode())
	}
}

func TestReactiveFOPReturnsFromTree(t *testing.T) {
	// Burst of contention followed by a solo phase: must come back down
	// from the tree (via queue, possibly to TTS).
	m := machine.New(machine.DefaultConfig(32))
	f := NewReactiveFetchOp(m.Mem, 0, 32)
	total := 0
	for p := 0; p < 32; p++ {
		m.SpawnCPU(p, 0, "hot", func(c *machine.CPU) {
			for i := 0; i < 25; i++ {
				f.FetchAdd(c, 1)
				c.Advance(machine.Time(c.Rand().Intn(400)))
			}
			total += 25
		})
	}
	m.SpawnCPU(0, 900000, "solo", func(c *machine.CPU) {
		for i := 0; i < 80; i++ {
			f.FetchAdd(c, 1)
			c.Advance(100)
		}
		total += 80
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if f.Mode() == fopTree {
		t.Fatalf("still in TREE mode after contention subsided")
	}
	if f.Value() != uint64(total) {
		t.Fatalf("value %d, want %d", f.Value(), total)
	}
}

// TestReactiveFOPFlappingChangesSerialize drives the fetch-and-op through
// frequent protocol changes, into and out of the tree included:
// finishChange panics, failing the run, on any change that does not start
// from the valid protocol.
func TestReactiveFOPFlappingChangesSerialize(t *testing.T) {
	f, got, _ := runFOP(t, 16, 30, 2500, func(f *ReactiveFetchOp) {
		f.EmptyQueueLimit = 1
		f.TTSRetryLimit = 1
		f.QueueWaitLimit = 400
		f.CombineRateMin = 3.9 // fall out of the tree quickly
	})
	checkPerm(t, got, 480)
	if f.Changes == 0 {
		t.Fatal("no protocol changes exercised")
	}
}

func TestReactiveFOPImplementsFetchOp(t *testing.T) {
	var _ fetchop.FetchOp = (*ReactiveFetchOp)(nil)
}

func TestReactiveFOPDeterminism(t *testing.T) {
	_, _, e1 := runFOP(t, 8, 15, 300, nil)
	_, _, e2 := runFOP(t, 8, 15, 300, nil)
	if e1 != e2 {
		t.Fatalf("non-deterministic: %d vs %d", e1, e2)
	}
}
