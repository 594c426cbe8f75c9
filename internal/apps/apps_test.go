package apps

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fetchop"
	"repro/internal/machine"
	"repro/internal/spinlock"
	"repro/internal/threads"
	"repro/internal/waiting"
)

func fopFor(m *machine.Machine, kind string, nleaves int) fetchop.FetchOp {
	switch kind {
	case "queue":
		return fetchop.NewQueueLockFOP(m.Mem, 0)
	case "combtree":
		return fetchop.NewCombTree(m.Mem, nleaves, 0)
	case "reactive":
		return core.NewReactiveFetchOp(m.Mem, 0, nleaves)
	default:
		panic(kind)
	}
}

func TestGamtebRunsAllProtocols(t *testing.T) {
	for _, kind := range []string{"queue", "combtree", "reactive"} {
		m := machine.New(machine.DefaultConfig(8))
		counters := make([]fetchop.FetchOp, 9)
		for i := range counters {
			counters[i] = fopFor(m, kind, 8)
		}
		g := &Gamteb{Particles: 64, Counters: counters}
		if el := g.Run(m); el == 0 {
			t.Fatalf("%s: zero elapsed time", kind)
		}
	}
}

func TestBranchAndBoundCompletes(t *testing.T) {
	for _, kind := range []string{"queue", "reactive"} {
		m := machine.New(machine.DefaultConfig(8))
		b := NewTSP(fopFor(m, kind, 8))
		b.Depth = 6
		if el := b.Run(m); el == 0 {
			t.Fatalf("%s: zero elapsed", kind)
		}
		// Full binary tree depth 6 = 127 nodes max; pruning removes some.
		if b.Nodes < 40 || b.Nodes > 127 {
			t.Fatalf("%s: %d nodes processed", kind, b.Nodes)
		}
	}
}

func TestMP3DRuns(t *testing.T) {
	for _, mk := range []func(m *machine.Machine) spinlock.Lock{
		func(m *machine.Machine) spinlock.Lock { return spinlock.NewTAS(m.Mem, 0, spinlock.DefaultBackoff) },
		func(m *machine.Machine) spinlock.Lock { return spinlock.NewMCS(m.Mem, 0) },
		func(m *machine.Machine) spinlock.Lock { return core.NewReactiveLock(m.Mem, 0) },
	} {
		m := machine.New(machine.DefaultConfig(8))
		cells := make([]spinlock.Lock, 16)
		for i := range cells {
			cells[i] = mk(m)
		}
		app := &MP3D{CellLocks: cells, Collision: mk(m), Particles: 64, Iters: 3}
		if el := app.Run(m); el == 0 {
			t.Fatal("zero elapsed")
		}
	}
}

func TestCholeskyRuns(t *testing.T) {
	m := machine.New(machine.DefaultConfig(8))
	cols := make([]spinlock.Lock, 48)
	for i := range cols {
		cols[i] = core.NewReactiveLock(m.Mem, i%8)
	}
	app := &Cholesky{
		TaskLock:      core.NewReactiveLock(m.Mem, 0),
		ColLocks:      cols,
		Columns:       40,
		UpdatesPerCol: 3,
	}
	if el := app.Run(m); el == 0 {
		t.Fatal("zero elapsed")
	}
}

func newSched(procs int) *threads.Scheduler {
	return threads.NewScheduler(machine.New(machine.DefaultConfig(procs)), threads.DefaultCosts())
}

func waitAlgs() []*waiting.Algorithm {
	costs := threads.DefaultCosts()
	return []*waiting.Algorithm{
		waiting.Spin(),
		waiting.Block(),
		waiting.TwoPhaseAlpha(0.54, costs),
	}
}

func TestJacobiJstrAllAlgorithms(t *testing.T) {
	// One thread per processor: pure spinning is live (every producer is
	// always scheduled), as in the thesis's Jacobi configuration.
	for _, alg := range waitAlgs() {
		s := newSched(4)
		s.Machine().Eng.SetLimit(50_000_000)
		app := &JacobiJstr{Threads: 4, Iters: 6, Grain: 800}
		if el := app.Run(s, alg); el == 0 {
			t.Fatalf("%s: zero elapsed", alg.Name())
		}
	}
}

func TestJacobiJstrMultiprogrammedBlocking(t *testing.T) {
	// With 2 threads per processor, signaling algorithms stay live because
	// blocked waiters free the processor for the not-yet-started threads.
	costs := threads.DefaultCosts()
	for _, alg := range []*waiting.Algorithm{
		waiting.Block(),
		waiting.TwoPhaseAlpha(0.54, costs),
	} {
		s := newSched(4)
		s.Machine().Eng.SetLimit(50_000_000)
		app := &JacobiJstr{Threads: 8, Iters: 6, Grain: 800}
		if el := app.Run(s, alg); el == 0 {
			t.Fatalf("%s: zero elapsed", alg.Name())
		}
	}
}

func TestFutureTreeAlgorithms(t *testing.T) {
	// The future tree over-threads the machine; pure spinning would starve
	// descendants (the starvation hazard Section 2.2.4 notes), so it runs
	// with signaling-capable algorithms only.
	costs := threads.DefaultCosts()
	for _, alg := range []*waiting.Algorithm{
		waiting.Block(),
		waiting.TwoPhaseAlpha(0.54, costs),
		waiting.TwoPhaseAlpha(1.0, costs),
	} {
		s := newSched(4)
		s.Machine().Eng.SetLimit(100_000_000)
		app := &FutureTree{Depth: 4, Grain: 500}
		if el := app.Run(s, alg); el == 0 {
			t.Fatalf("%s: zero elapsed", alg.Name())
		}
	}
}

func TestFutureStreamAllAlgorithms(t *testing.T) {
	for _, alg := range waitAlgs() {
		s := newSched(4)
		s.Machine().Eng.SetLimit(100_000_000)
		app := &FutureStream{Items: 20, Mean: 700, Work: 500}
		if el := app.Run(s, alg); el == 0 {
			t.Fatalf("%s: zero elapsed", alg.Name())
		}
	}
}

func TestBarrierAppsAllAlgorithms(t *testing.T) {
	for _, alg := range waitAlgs() {
		s := newSched(4)
		s.Machine().Eng.SetLimit(50_000_000)
		if el := NewJacobiBar(4, 5).Run(s, alg); el == 0 {
			t.Fatalf("%s: jacobi-bar zero elapsed", alg.Name())
		}
		s2 := newSched(4)
		s2.Machine().Eng.SetLimit(50_000_000)
		if el := NewCGrad(4, 4).Run(s2, alg); el == 0 {
			t.Fatalf("%s: cgrad zero elapsed", alg.Name())
		}
	}
}

func TestMutexAppsAllAlgorithms(t *testing.T) {
	for _, alg := range waitAlgs() {
		s := newSched(4)
		if el := (&FibHeap{Threads: 8, Ops: 10, Mean: 600}).Run(s, alg); el == 0 {
			t.Fatalf("%s: fibheap zero elapsed", alg.Name())
		}
		s2 := newSched(4)
		if el := (&MutexBench{Threads: 8, Ops: 10, CS: 150, Think: 600}).Run(s2, alg); el == 0 {
			t.Fatalf("%s: mutex zero elapsed", alg.Name())
		}
		s3 := newSched(4)
		if el := (&CountNet{Threads: 8, Width: 4, Ops: 8}).Run(s3, alg); el == 0 {
			t.Fatalf("%s: countnet zero elapsed", alg.Name())
		}
	}
}

func TestBlockingBeatsSpinningWithMultiprogramming(t *testing.T) {
	// Long producer intervals + a coworker sharing the consumer's
	// processor: always-block must beat always-spin (the raison d'être of
	// signaling mechanisms).
	elapsed := func(alg *waiting.Algorithm) Time {
		s := newSched(4)
		s.Machine().Eng.SetLimit(200_000_000)
		return (&FutureStream{Items: 25, Mean: 4000, Work: 3000}).Run(s, alg)
	}
	spin := elapsed(waiting.Spin())
	block := elapsed(waiting.Block())
	if block >= spin {
		t.Fatalf("always-block (%d) should beat always-spin (%d)", block, spin)
	}
}

func TestDeterministicApps(t *testing.T) {
	run := func() Time {
		s := newSched(4)
		return (&FibHeap{Threads: 8, Ops: 8, Mean: 500}).Run(s, waiting.Block())
	}
	if run() != run() {
		t.Fatal("FibHeap non-deterministic")
	}
}
