package reactive

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/watchdog"
	"repro/reactive/policy"
)

// TestRWMutexOptionsReachWriterMutex: threshold and polling options
// configure the embedded writer mutex, and so do an injected policy and
// a spin/park initial mode — the writer mutex's engine is the one
// spin/park engine RWMutex runs. The registration engine keeps the
// built-in streaks (policy instances must not be shared between
// engines).
func TestRWMutexOptionsReachWriterMutex(t *testing.T) {
	p := policy.AlwaysSwitch{}
	rw := NewRWMutex(WithSpinFailLimit(7), WithEmptyLimit(9), WithPollIters(11),
		WithPolicy(p), WithInitialMode(ModePark))
	if rw.w.cfg.failLimit() != 7 || rw.w.cfg.emptyLim() != 9 || rw.w.cfg.pollBudget() != 11 {
		t.Fatalf("writer mutex tunables = (%d,%d,%d), want (7,9,11)",
			rw.w.cfg.failLimit(), rw.w.cfg.emptyLim(), rw.w.cfg.pollBudget())
	}
	if rw.w.eng.Policy() != p {
		t.Fatal("policy not installed on the writer mutex")
	}
	if rw.reng.Policy() != nil {
		t.Fatal("policy instance must not propagate to the registration engine")
	}
	if st := rw.Stats(); st.Mode != ModePark || st.Switches != 1 || st.Readers.Mode != ModeCAS {
		t.Fatalf("Stats = %+v, want the writer mutex's park mode after 1 switch, cas registration", st)
	}
}

func TestRWMutexZeroValue(t *testing.T) {
	var rw RWMutex
	rw.Lock()
	rw.Unlock()
	rw.RLock()
	rw.RUnlock()
	if st := rw.Stats(); st.Mode != ModeSpin || st.Switches != 0 {
		t.Fatalf("Stats = %+v, want spin mode, 0 switches", st)
	}
}

// Three properties hold under every reader-registration protocol. Each
// is written once, over WithInitialReaderMode, and entered once per
// protocol under the test names CI's -run selections (Makefile `test`)
// and the tier-1 floor already know.
func TestRWMutexTryLocks(t *testing.T)               { rwTryLocks(t, ModeCAS) }
func TestRWMutexShardedTryLocks(t *testing.T)        { rwTryLocks(t, ModeSharded) }
func TestRWMutexEpochTryLocks(t *testing.T)          { rwTryLocks(t, ModeEpoch) }
func TestRWMutexExclusion(t *testing.T)              { rwExclusion(t, ModeCAS) }
func TestRWMutexShardedExclusion(t *testing.T)       { rwExclusion(t, ModeSharded) }
func TestRWMutexEpochExclusion(t *testing.T)         { rwExclusion(t, ModeEpoch) }
func TestRWMutexParallelReaders(t *testing.T)        { rwParallelReaders(t, ModeCAS) }
func TestRWMutexShardedParallelReaders(t *testing.T) { rwParallelReaders(t, ModeSharded) }
func TestRWMutexEpochParallelReaders(t *testing.T)   { rwParallelReaders(t, ModeEpoch) }

// rwTryLocks: TryLock must observe readers of the given registration
// protocol (the centralized count, or the cell sweep) and TryRLock must
// register through it; a failed TryLock retracts its claims.
func rwTryLocks(t *testing.T, reg Mode) {
	rw := NewRWMutex(WithInitialReaderMode(reg))
	if !rw.TryLock() {
		t.Fatal("TryLock on free RWMutex failed")
	}
	if rw.TryLock() {
		t.Fatal("TryLock on write-held RWMutex succeeded")
	}
	if rw.TryRLock() {
		t.Fatal("TryRLock on write-held RWMutex succeeded")
	}
	rw.Unlock()
	if !rw.TryRLock() {
		t.Fatal("TryRLock on free RWMutex failed")
	}
	if !rw.TryRLock() {
		t.Fatal("second concurrent TryRLock failed")
	}
	if rw.TryLock() {
		t.Fatal("TryLock with active readers succeeded")
	}
	rw.RUnlock()
	rw.RUnlock()
	// The failed TryLock above retracted its claim; readers must be
	// admitted again.
	rw.RLock()
	rw.RUnlock()
	if got := rw.Stats().Readers.Mode; got != reg {
		t.Fatalf("registration mode = %v after try-locks alone, want %v", got, reg)
	}
	if err := rw.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// rwExclusion: writers exclude writers and readers; readers admit each
// other. The classic invariant check, run with -race in CI. (Detection
// may move the registration protocol under the run; the property holds
// across the moves.)
func rwExclusion(t *testing.T, reg Mode) {
	rw := NewRWMutex(WithInitialReaderMode(reg))
	var readers, writers atomic.Int32
	var wg sync.WaitGroup
	iters := 1000
	if testing.Short() {
		iters = 300
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				rw.Lock()
				if writers.Add(1) != 1 || readers.Load() != 0 {
					t.Error("writer overlapped a writer or reader")
				}
				runtime.Gosched()
				writers.Add(-1)
				rw.Unlock()
			}
		}()
	}
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				rw.RLock()
				readers.Add(1)
				if writers.Load() != 0 {
					t.Error("reader overlapped a writer")
				}
				runtime.Gosched()
				readers.Add(-1)
				rw.RUnlock()
			}
		}()
	}
	wg.Wait()
	if err := rw.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// rwParallelReaders: two readers hold the lock simultaneously.
func rwParallelReaders(t *testing.T, reg Mode) {
	rw := NewRWMutex(WithInitialReaderMode(reg))
	rw.RLock()
	second := make(chan struct{})
	go func() {
		rw.RLock()
		close(second)
		rw.RUnlock()
	}()
	select {
	case <-second:
	case <-time.After(5 * time.Second):
		t.Fatal("second reader blocked by first")
	}
	rw.RUnlock()
}

func TestRWMutexPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"Unlock":  func() { var rw RWMutex; rw.Unlock() },
		"RUnlock": func() { var rw RWMutex; rw.RUnlock() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s of unlocked RWMutex did not panic", name)
				}
			}()
			f()
		}()
	}
}

// TestRWMutexBlockedReaderParks: a reader blocked by a writer that holds
// past the polling budget parks on the reader queue — on a zero-value
// lock, with no option steering it — and acquires once the writer
// releases.
func TestRWMutexBlockedReaderParks(t *testing.T) {
	var rw RWMutex
	rw.Lock()
	acquired := make(chan struct{})
	go func() {
		rw.RLock()
		rw.RUnlock()
		close(acquired)
	}()
	snap := func() string { return fmt.Sprintf("rwmutex: %+v", rw.Stats()) }
	parked, stop := make(chan struct{}), make(chan struct{})
	defer close(stop)
	go func() {
		for rw.Stats().Waiters < 1 {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
		}
		close(parked)
	}()
	if err := watchdog.Await(parked, 2*time.Second, snap); err != nil {
		t.Fatalf("blocked reader never parked: %v", err)
	}
	rw.Unlock()
	if err := watchdog.Await(acquired, 2*time.Second, snap); err != nil {
		t.Fatalf("parked reader never acquired after the writer's release: %v", err)
	}
	if err := rw.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRWMutexInjectedPolicy: the policy steers the writer mutex, so an
// always-switch policy flips a park-mode RWMutex back to spin on the
// first uncontended writer release.
func TestRWMutexInjectedPolicy(t *testing.T) {
	rw := NewRWMutex(WithPolicy(policy.AlwaysSwitch{}), WithInitialMode(ModePark))
	rw.Lock()
	rw.Unlock()
	if st := rw.Stats(); st.Mode != ModeSpin || st.Switches != 2 {
		t.Fatalf("Stats = %+v, want spin after one empty release under always-switch (2 switches)", st)
	}
}

// TestRWMutexStressForcedModeSwitches hammers readers and writers while
// the writer mutex is flipped in both directions, with a timeout guard
// asserting no reader or writer is stranded by a Park→Spin transition.
func TestRWMutexStressForcedModeSwitches(t *testing.T) {
	rw := NewRWMutex(WithPollIters(2)) // park quickly
	const writers, readers = 4, 16
	iters := 300
	if testing.Short() {
		iters = 100
	}
	var wg sync.WaitGroup
	counter := 0
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
				rw.w.switchMode(ModeSpin, ModePark)
			} else {
				rw.w.switchMode(ModePark, ModeSpin)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}()
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				rw.Lock()
				counter++
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
				reads.Add(1)
				rw.RUnlock()
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatalf("stranded waiter across forced writer-mutex switches: %d/%d writes, %d/%d reads",
			counter, writers*iters, reads.Load(), int64(readers*iters))
	}
	close(stop)
	fwg.Wait()
	if counter != writers*iters {
		t.Fatalf("writes = %d, want %d", counter, writers*iters)
	}
}
