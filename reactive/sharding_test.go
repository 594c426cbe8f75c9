package reactive

// Tests for the per-P affinity substrate's integration: zero-allocation
// fast paths (the regression test for deleting the stripe pool),
// GOMAXPROCS=1 coverage (minimum cell array, pin index 0 everywhere),
// and the BRAVO-style sharded reader registration of RWMutex.

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/reactive/internal/affinity"
	"repro/reactive/policy"
)

// --- Zero-allocation assertions -------------------------------------

// assertZeroAllocs pins a fast path at zero allocations per operation.
func assertZeroAllocs(t *testing.T, name string, op func()) {
	t.Helper()
	op() // warm up lazily-created state outside the measurement
	if avg := testing.AllocsPerRun(200, op); avg != 0 {
		t.Errorf("%s allocates %v per op, want 0", name, avg)
	}
}

func TestCounterAddZeroAllocs(t *testing.T) {
	var cas Counter
	assertZeroAllocs(t, "Counter.Add/cas", func() { cas.Add(1) })

	sharded := NewCounter()
	sharded.f.switchFop(fCAS, fSharded)
	assertZeroAllocs(t, "Counter.Add/sharded", func() { sharded.Add(1) })

	combining := NewCounter()
	combining.f.switchFop(fCAS, fSharded)
	combining.f.switchFop(fSharded, fCombining)
	assertZeroAllocs(t, "Counter.Add/combining", func() { combining.Add(1) })
}

func TestFetchOpApplyZeroAllocs(t *testing.T) {
	op := func(a, b int64) int64 {
		if b > a {
			return b
		}
		return a
	}
	cas := NewFetchOp(op, 0)
	assertZeroAllocs(t, "FetchOp.Apply/cas", func() { cas.Apply(1) })

	sharded := NewFetchOp(op, 0)
	sharded.switchFop(fCAS, fSharded)
	assertZeroAllocs(t, "FetchOp.Apply/sharded", func() { sharded.Apply(1) })

	combining := NewFetchOp(op, 0)
	combining.switchFop(fCAS, fSharded)
	combining.switchFop(fSharded, fCombining)
	assertZeroAllocs(t, "FetchOp.Apply/combining", func() { combining.Apply(1) })
}

// TestFetchOpSweepZeroAllocs pins the reconciling sweep at zero
// allocations while no rescue is banked: a sharded Load or Value that
// finds every cell non-empty harvests onto its own frame.
func TestFetchOpSweepZeroAllocs(t *testing.T) {
	fill := func(f *FetchOp, x int64) {
		cells := f.cells.Build(f.id)
		for i := range cells {
			cells[i].N.Store(x)
		}
	}
	c := NewCounter(WithInitialMode(ModeSharded), WithEmptyLimit(1<<30))
	assertZeroAllocs(t, "Counter.Load/sharded", func() { fill(&c.f, 1); c.Load() })

	x := int64(0)
	f := NewFetchOp(func(a, b int64) int64 {
		if b > a {
			return b
		}
		return a
	}, math.MinInt64, WithInitialMode(ModeSharded), WithEmptyLimit(1<<30))
	assertZeroAllocs(t, "FetchOp.Value/sharded", func() {
		x++
		fill(f, x)
		if got := f.Value(); got != x {
			t.Fatalf("Value = %d, want %d", got, x)
		}
	})
}

// TestCongestionPolicyZeroAllocs pins the uncontended fast paths at
// zero allocations with policy.Congestion installed: carrying the
// feedback-control policy (and its Quiescent elision) must not cost an
// allocation per operation.
func TestCongestionPolicyZeroAllocs(t *testing.T) {
	m := New(WithPolicy(policy.NewCongestion()))
	assertZeroAllocs(t, "Mutex.Lock/congestion", func() {
		m.Lock()
		m.Unlock()
	})

	c := NewCounter(WithPolicy(policy.NewCongestion()))
	assertZeroAllocs(t, "Counter.Add/congestion", func() { c.Add(1) })

	rw := NewRWMutex(WithPolicy(policy.NewCongestion()))
	assertZeroAllocs(t, "RWMutex.RLock/congestion", func() {
		rw.RLock()
		rw.RUnlock()
	})
}

func TestRWMutexReadZeroAllocs(t *testing.T) {
	var central RWMutex
	assertZeroAllocs(t, "RWMutex.RLock/central", func() {
		central.RLock()
		central.RUnlock()
	})

	var sharded RWMutex
	sharded.switchReaderMode(rCentral, rSharded)
	if got := sharded.Stats().Readers.Mode; got != ModeSharded {
		t.Fatalf("reader mode = %v, want sharded", got)
	}
	assertZeroAllocs(t, "RWMutex.RLock/sharded", func() {
		sharded.RLock()
		sharded.RUnlock()
	})
}

// --- WithInitialMode ------------------------------------------------

func TestWithInitialMode(t *testing.T) {
	if got := New(WithInitialMode(ModePark)).Stats().Mode; got != ModePark {
		t.Fatalf("Mutex initial mode = %v, want park", got)
	}
	if got := New(WithInitialMode(ModeSpin)).Stats().Mode; got != ModeSpin {
		t.Fatalf("Mutex initial mode = %v, want spin", got)
	}
	c := NewCounter(WithInitialMode(ModeSharded))
	if got := c.Stats().Mode; got != ModeSharded {
		t.Fatalf("Counter initial mode = %v, want sharded", got)
	}
	c.Add(5)
	c.Add(7)
	if got := c.Load(); got != 12 {
		t.Fatalf("forced-sharded Counter Load = %d, want 12", got)
	}
	f := NewFetchOp(func(a, b int64) int64 { return a + b }, 0, WithInitialMode(ModeCombining))
	if got := f.Stats().Mode; got != ModeCombining {
		t.Fatalf("FetchOp initial mode = %v, want combining", got)
	}
	for i := 0; i < 50; i++ {
		f.Apply(1)
	}
	if got := f.Value(); got != 50 {
		t.Fatalf("forced-combining FetchOp Value = %d, want 50", got)
	}
	rw := NewRWMutex(WithInitialReaderMode(ModeSharded))
	if got := rw.Stats().Readers.Mode; got != ModeSharded {
		t.Fatalf("RWMutex initial registration mode = %v, want sharded", got)
	}
	if got := rw.Stats().Mode; got != ModeSpin {
		t.Fatalf("RWMutex writer mode = %v after registration-only option, want spin", got)
	}
	rw.RLock()
	rw.RUnlock()
	rw.Lock()
	rw.Unlock()
	rw2 := NewRWMutex(WithInitialMode(ModePark))
	if got := rw2.Stats().Mode; got != ModePark {
		t.Fatalf("RWMutex writer mode = %v, want park", got)
	}
	if got := rw2.Stats().Readers.Mode; got != ModeCAS {
		t.Fatalf("RWMutex registration mode = %v after spin/park-only option, want cas", got)
	}
}

func TestWithInitialModeInvalid(t *testing.T) {
	for name, f := range map[string]func(){
		"option-range":      func() { WithInitialMode(Mode(99)) },
		"mutex-cas":         func() { New(WithInitialMode(ModeCAS)) },
		"counter-spin":      func() { NewCounter(WithInitialMode(ModeSpin)) },
		"fetchop-park":      func() { NewFetchOp(func(a, b int64) int64 { return a + b }, 0, WithInitialMode(ModePark)) },
		"rwmutex-combining": func() { NewRWMutex(WithInitialMode(ModeCombining)) },
		// WithInitialMode starts RWMutex's writer mutex only; the reader
		// modes go through WithInitialReaderMode.
		"rwmutex-cas":     func() { NewRWMutex(WithInitialMode(ModeCAS)) },
		"rwmutex-sharded": func() { NewRWMutex(WithInitialMode(ModeSharded)) },
		"rwmutex-epoch":   func() { NewRWMutex(WithInitialMode(ModeEpoch)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: invalid initial mode did not panic", name)
				}
			}()
			f()
		}()
	}
}

// --- GOMAXPROCS=1 coverage ------------------------------------------

// TestFetchOpGOMAXPROCS1ModeTransitions walks the whole protocol chain
// at GOMAXPROCS=1: the cell array takes its minimum size (2) and every
// pin resolves to index 0, so all sharded traffic funnels through one
// cell — the accumulator must still be exact across every transition.
func TestFetchOpGOMAXPROCS1ModeTransitions(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if affinity.Shards() != 2 {
		t.Fatalf("Shards() = %d at GOMAXPROCS=1, want the minimum 2", affinity.Shards())
	}
	f := NewFetchOp(func(a, b int64) int64 { return a + b }, 0)
	want := int64(0)
	apply := func(n int) {
		for i := 0; i < n; i++ {
			f.Apply(1)
			want++
		}
	}
	apply(10) // CAS
	f.switchFop(fCAS, fSharded)
	apply(10) // sharded: every deposit lands in cell 0
	f.switchFop(fSharded, fCombining)
	apply(25) // combining: batch folds through the same single cell
	if got := f.Value(); got != want {
		t.Fatalf("Value = %d after combining at GOMAXPROCS=1, want %d", got, want)
	}
	// Back down the chain; the sweep-based detection still works with
	// one processor.
	if f.eng.TryCommit(fopTable, f.eng.Mode(), fSharded) {
		apply(10)
	}
	if f.eng.TryCommit(fopTable, fSharded, fCAS) {
		apply(10)
	}
	if got := f.Value(); got != want {
		t.Fatalf("Value = %d after full chain at GOMAXPROCS=1, want %d", got, want)
	}
}

func TestCounterGOMAXPROCS1ModeTransitions(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var c Counter
	want := int64(0)
	add := func(n int) {
		for i := 0; i < n; i++ {
			c.Add(2)
			want += 2
		}
	}
	add(10)
	c.f.switchFop(fCAS, fSharded)
	add(10)
	if got := c.Load(); got != want {
		t.Fatalf("Load = %d in sharded mode at GOMAXPROCS=1, want %d", got, want)
	}
	c.f.switchFop(c.f.eng.Mode(), fCombining)
	add(25)
	if got := c.Load(); got != want {
		t.Fatalf("Load = %d in combining mode at GOMAXPROCS=1, want %d", got, want)
	}
}

// --- Sharded reader registration (RWMutex) --------------------------

// TestRWMutexReaderContentionPromotesToSharded pins the up-edge
// detection semantics deterministically: SpinFailLimit consecutive
// reader-reader CAS losses (as rlockSlow reports them) switch the
// registration protocol to sharded slots.
func TestRWMutexReaderContentionPromotesToSharded(t *testing.T) {
	var rw RWMutex
	for i := 0; i < DefaultSpinFailLimit; i++ {
		rw.noteRegistration(true)
	}
	if got := rw.Stats().Readers; got.Mode != ModeSharded || got.Switches != 1 {
		t.Fatalf("Stats().Readers = %+v after %d CAS losses, want sharded after 1 switch",
			got, DefaultSpinFailLimit)
	}
	// Readers must still work, concurrently, in the new mode.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				rw.RLock()
				rw.RUnlock()
			}
		}()
	}
	wg.Wait()
}

// TestRWMutexRegistrationStreakSemantics pins the up-edge streak
// semantics: a loss-free slow-path registration (as rlockSlow reports
// it) breaks the reader-contention streak, so only consecutive
// CAS losses — never losses accumulated across the lock's lifetime —
// reach the switch threshold.
func TestRWMutexRegistrationStreakSemantics(t *testing.T) {
	var rw RWMutex
	for round := 0; round < 3; round++ {
		for i := 0; i < DefaultSpinFailLimit-1; i++ {
			rw.noteRegistration(true)
		}
		rw.noteRegistration(false) // loss-free registration
	}
	if got := rw.Stats().Readers.Mode; got != ModeCAS {
		t.Fatalf("reader mode = %v after broken loss streaks, want cas", got)
	}
}

// TestRWMutexQuietDrainsDemoteToCentral: EmptyLimit consecutive writer
// drains that found the lock already quiet retire the sharded slots.
func TestRWMutexQuietDrainsDemoteToCentral(t *testing.T) {
	var rw RWMutex
	rw.switchReaderMode(rCentral, rSharded)
	for i := 0; i < 2*DefaultEmptyLimit; i++ {
		rw.Lock()
		rw.Unlock()
	}
	if got := rw.Stats().Readers.Mode; got != ModeCAS {
		t.Fatalf("reader mode = %v after quiet writer drains, want cas", got)
	}
	// The slots stay built, and reads still work.
	rw.RLock()
	rw.RUnlock()
}

// TestRWMutexStressShardedRegistration is the race-detector stress test
// for the sharded reader protocol: readers registering through the
// slots race writer drains and registration-protocol switches in both
// directions, with a timeout guard asserting nobody is stranded and the
// exclusion counters asserting no reader ever overlaps a writer. (The
// mode flipper routes every switch through switchReaderMode — commits
// are only sound under writer exclusion, which is itself part of the
// contract under test.)
func TestRWMutexStressShardedRegistration(t *testing.T) {
	rw := NewRWMutex(WithPollIters(2)) // park quickly: exercise both wait phases
	const writers, readers = 4, 16
	iters := 300
	if testing.Short() {
		iters = 100
	}
	var inWriter, inReaders atomic.Int32
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var fwg sync.WaitGroup
	fwg.Add(1)
	go func() {
		defer fwg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				rw.switchReaderMode(rCentral, rSharded)
			} else {
				rw.switchReaderMode(rSharded, rCentral)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}()
	counter := 0
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				rw.Lock()
				if inWriter.Add(1) != 1 || inReaders.Load() != 0 {
					t.Error("writer overlapped a writer or reader across a registration switch")
				}
				counter++
				inWriter.Add(-1)
				rw.Unlock()
			}
		}()
	}
	var reads atomic.Int64
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				rw.RLock()
				inReaders.Add(1)
				if inWriter.Load() != 0 {
					t.Error("reader overlapped a writer across a registration switch")
				}
				reads.Add(1)
				inReaders.Add(-1)
				rw.RUnlock()
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatalf("stranded waiter across registration-protocol switches: %d/%d writes, %d/%d reads",
			counter, writers*iters, reads.Load(), int64(readers*iters))
	}
	close(stop)
	fwg.Wait()
	if counter != writers*iters {
		t.Fatalf("writes = %d, want %d", counter, writers*iters)
	}
}
