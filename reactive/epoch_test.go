package reactive

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/reactive/modal"
)

// --- WithInitialReaderMode ------------------------------------------

func TestWithInitialReaderMode(t *testing.T) {
	for _, m := range []Mode{ModeCAS, ModeSharded, ModeEpoch} {
		rw := NewRWMutex(WithInitialReaderMode(m))
		if got := rw.Stats().Readers.Mode; got != m {
			t.Fatalf("reader mode = %v, want %v", got, m)
		}
		if got := rw.Stats().Mode; got != ModeSpin {
			t.Fatalf("wait mode = %v after registration-only option, want spin", got)
		}
		// The lock must work in the forced mode.
		rw.RLock()
		rw.RUnlock()
		rw.Lock()
		rw.Unlock()
	}

	// Composes with a wait-protocol WithInitialMode: each option
	// addresses its own engine.
	rw := NewRWMutex(WithInitialMode(ModePark), WithInitialReaderMode(ModeEpoch))
	if got := rw.Stats(); got.Mode != ModePark || got.Readers.Mode != ModeEpoch {
		t.Fatalf("Stats = %+v, want park wait + epoch registration", got)
	}

	// WithInitialMode addresses the writer mutex alone: a registration
	// mode there panics rather than reaching the reader engine.
	for _, m := range []Mode{ModeCAS, ModeSharded, ModeEpoch} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewRWMutex(WithInitialMode(%v)) did not panic", m)
				}
			}()
			NewRWMutex(WithInitialMode(m), WithInitialReaderMode(ModeEpoch))
		}()
	}

	// Forcing epoch and walking back down must leave a working lock:
	// the demotion path (quiet grace periods) is covered in
	// TestRWMutexEpochQuietGracesDemote.
}

func TestWithInitialReaderModeInvalid(t *testing.T) {
	for name, f := range map[string]func(){
		"spin":      func() { WithInitialReaderMode(ModeSpin) },
		"park":      func() { WithInitialReaderMode(ModePark) },
		"combining": func() { WithInitialReaderMode(ModeCombining) },
		"range":     func() { WithInitialReaderMode(Mode(99)) },
		// ModeEpoch is an RWMutex reader protocol only: the other
		// constructors must reject it like any mode outside their chain.
		"mutex-epoch":   func() { New(WithInitialMode(ModeEpoch)) },
		"counter-epoch": func() { NewCounter(WithInitialMode(ModeEpoch)) },
		"fetchop-epoch": func() { NewFetchOp(func(a, b int64) int64 { return a + b }, 0, WithInitialMode(ModeEpoch)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: invalid mode did not panic", name)
				}
			}()
			f()
		}()
	}
}

// TestReaderCommitsKeepTheWriterClaim commits every edge of the
// registration chain from inside a writer's critical section, one edge
// per critical section, as the drain's detection and switchReaderMode
// do. Whatever mode a commit publishes, no reader — an epoch Enter
// included — gets in beside the writer: the kernel's Select leaves the
// writer's claim on the gate, and a writer whose claim predates the
// cells commits only to the sharded mode, whose readers validate
// against readerCount. After Unlock the lock is quiescent and works.
func TestReaderCommitsKeepTheWriterClaim(t *testing.T) {
	rw := NewRWMutex()
	for _, e := range []struct{ from, to modal.Mode }{
		{rCentral, rSharded}, {rSharded, rEpoch}, {rEpoch, rSharded}, {rSharded, rCentral},
	} {
		rw.Lock()
		rw.commitReaderMode(e.from, e.to)
		if got := rw.reng.Mode(); got != e.to {
			t.Fatalf("%v→%v: registration mode %v after the commit", e.from, e.to, got)
		}
		if c, _ := rw.ek.Enter(); c != nil {
			rw.ek.Exit(c)
			t.Fatalf("%v→%v: an epoch reader entered beside the writer", e.from, e.to)
		}
		if rw.TryRLock() {
			t.Fatalf("%v→%v: TryRLock succeeded beside the writer", e.from, e.to)
		}
		rw.Unlock()
		if err := rw.CheckInvariants(); err != nil {
			t.Fatalf("%v→%v: %v", e.from, e.to, err)
		}
		rw.RLock()
		rw.RUnlock()
	}
}

// --- Epoch fast path ------------------------------------------------

func TestRWMutexReadEpochZeroAllocs(t *testing.T) {
	rw := NewRWMutex(WithInitialReaderMode(ModeEpoch))
	assertZeroAllocs(t, "RWMutex.RLock/epoch", func() {
		rw.RLock()
		rw.RUnlock()
	})
}

// --- Grace periods and detection ------------------------------------

// TestRWMutexEpochQuietGracesDemote pins the scale-down detection
// deterministically: every writer acquisition in epoch mode is one
// grace period, EmptyLimit consecutive quiet ones demote to sharded
// cells, and EmptyLimit further quiet drains retire the cells too — the
// chain moves one step at a time, so the walk down passes through
// sharded.
func TestRWMutexEpochQuietGracesDemote(t *testing.T) {
	rw := NewRWMutex(WithInitialReaderMode(ModeEpoch))
	for i := 0; i < DefaultEmptyLimit; i++ {
		rw.Lock()
		rw.Unlock()
	}
	s := rw.Stats().Readers
	if s.Mode != ModeSharded {
		t.Fatalf("reader mode = %v after %d quiet grace periods, want sharded",
			s.Mode, DefaultEmptyLimit)
	}
	if s.Graces != uint64(DefaultEmptyLimit) || s.QuietGraces != uint64(DefaultEmptyLimit) {
		t.Fatalf("graces = %d/%d quiet, want %d/%d (only epoch-mode drains count)",
			s.Graces, s.QuietGraces, DefaultEmptyLimit, DefaultEmptyLimit)
	}
	for i := 0; i < DefaultEmptyLimit; i++ {
		rw.Lock()
		rw.Unlock()
	}
	s = rw.Stats().Readers
	if s.Mode != ModeCAS {
		t.Fatalf("reader mode = %v after quiet sharded drains, want cas", s.Mode)
	}
	if g := rw.Stats().Readers.Graces; g != uint64(DefaultEmptyLimit) {
		t.Fatalf("graces = %d after leaving epoch mode, want unchanged %d", g, DefaultEmptyLimit)
	}
	// Cells and slots stay built; reads still work.
	rw.RLock()
	rw.RUnlock()
}

// TestRWMutexEpochBusyGraceCounters: a grace period that had to wait
// for an online reader counts in Graces but not QuietGraces, and it
// breaks the quiet streak toward demotion.
func TestRWMutexEpochBusyGraceCounters(t *testing.T) {
	rw := NewRWMutex(WithInitialReaderMode(ModeEpoch))
	rw.RLock()
	acquired := make(chan struct{})
	go func() {
		rw.Lock()
		close(acquired)
		rw.Unlock()
	}()
	// Give the writer time to arrive and begin its grace period while
	// the reader is still online.
	time.Sleep(20 * time.Millisecond)
	rw.RUnlock()
	select {
	case <-acquired:
	case <-time.After(10 * time.Second):
		t.Fatal("writer never completed its grace period")
	}
	s := rw.Stats().Readers
	if s.Mode != ModeEpoch {
		t.Fatalf("reader mode = %v, want epoch (one busy grace must not demote)", s.Mode)
	}
	if s.Graces == 0 {
		t.Fatal("busy grace period not counted in Graces")
	}
	if s.QuietGraces != 0 {
		t.Fatalf("quiet graces = %d, want 0 (the reader was online)", s.QuietGraces)
	}
}

// TestRWMutexEpochPromotionFromSharded drives the up-edge end to end:
// SpinFailLimit consecutive writer drains that found sharded readers
// active promote the registration protocol to epoch stamps.
func TestRWMutexEpochPromotionFromSharded(t *testing.T) {
	rw := NewRWMutex(WithInitialReaderMode(ModeSharded))
	for i := 0; i < DefaultSpinFailLimit; i++ {
		rw.RLock()
		acquired := make(chan struct{})
		go func() {
			rw.Lock()
			close(acquired)
			rw.Unlock()
		}()
		time.Sleep(10 * time.Millisecond) // let the writer arrive while the reader is online
		rw.RUnlock()
		select {
		case <-acquired:
		case <-time.After(10 * time.Second):
			t.Fatal("writer stranded during busy drain")
		}
	}
	if got := rw.Stats().Readers.Mode; got != ModeEpoch {
		t.Fatalf("reader mode = %v after %d busy drains, want epoch", got, DefaultSpinFailLimit)
	}
	// The promoted protocol must serve readers and writers.
	rw.RLock()
	rw.RUnlock()
	rw.Lock()
	rw.Unlock()
}

// --- GOMAXPROCS=1 ----------------------------------------------------

// TestRWMutexEpochGOMAXPROCS1ChainWalk walks the full registration
// chain at GOMAXPROCS=1, where every pin resolves to the same cell and
// the writer's grace-period sweep shares the one processor with the
// readers it waits on — the sweep must yield (the poll phase of
// Kernel.Wait yields between attempts) or this test deadlocks.
func TestRWMutexEpochGOMAXPROCS1ChainWalk(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rw := NewRWMutex(WithInitialReaderMode(ModeEpoch))

	// A reader holds while a writer drains on one processor: completion
	// requires the drain to yield to the reader's release.
	release := make(chan struct{})
	held := make(chan struct{})
	go func() {
		rw.RLock()
		close(held)
		<-release
		rw.RUnlock()
	}()
	<-held
	go func() {
		time.Sleep(10 * time.Millisecond)
		close(release)
	}()
	done := make(chan struct{})
	go func() {
		rw.Lock()
		rw.Unlock()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("grace-period sweep starved its reader at GOMAXPROCS=1")
	}

	// Walk down the chain with quiet drains, then back up by force;
	// every stop must serve reads.
	for rw.Stats().Readers.Mode != ModeCAS {
		rw.Lock()
		rw.Unlock()
	}
	rw.RLock()
	rw.RUnlock()
	rw.switchReaderMode(rCentral, rSharded)
	rw.RLock()
	rw.RUnlock()
	rw.switchReaderMode(rSharded, rEpoch)
	rw.RLock()
	rw.RUnlock()
	if got := rw.Stats().Readers.Mode; got != ModeEpoch {
		t.Fatalf("reader mode = %v after chain walk, want epoch", got)
	}
}

// --- Stress -----------------------------------------------------------

// TestRWMutexStressEpochChain is the race-detector stress test for the
// 3-mode registration chain: epoch readers race grace periods while a
// flipper forces the protocol around the full chain (central → sharded
// → epoch → sharded → central), with a timeout guard asserting nobody
// is stranded and exclusion counters asserting no reader ever overlaps
// a writer. Like the sharded stress test, every switch routes through
// switchReaderMode, whose writer exclusion is itself under test.
func TestRWMutexStressEpochChain(t *testing.T) {
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
		walk := [][2]modal.Mode{
			{rCentral, rSharded},
			{rSharded, rEpoch},
			{rEpoch, rSharded},
			{rSharded, rCentral},
		}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			step := walk[i%len(walk)]
			rw.switchReaderMode(step[0], step[1])
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
					t.Error("writer overlapped a writer or reader across a chain switch")
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
					t.Error("reader overlapped a writer across a chain switch")
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
		t.Fatalf("stranded waiter across chain switches: %d/%d writes, %d/%d reads",
			counter, writers*iters, reads.Load(), int64(readers*iters))
	}
	close(stop)
	fwg.Wait()
	if counter != writers*iters {
		t.Fatalf("writes = %d, want %d", counter, writers*iters)
	}
}
