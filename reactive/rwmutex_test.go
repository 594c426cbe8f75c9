package reactive

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/watchdog"
	"repro/reactive/modal"
	"repro/reactive/policy"
)

// switchReaderMode forces a registration-protocol change from want to
// next by taking the write lock: commits are sound only under full
// writer exclusion (claim in place, all registration paths drained), and
// holding the write lock freezes the mode, so the re-check decides the
// whole critical section. Tests drive the chain with it; the lock itself
// commits only in a writer's drain (drainReaders) and in a reader's
// non-waiting promotion (promote).
func (rw *RWMutex) switchReaderMode(want, next modal.Mode) {
	rw.Lock()
	if rw.reng.Mode() == want {
		rw.commitReaderMode(want, next)
	}
	rw.Unlock()
}

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
				rw.w.switchMode(mSpin, mPark)
			} else {
				rw.w.switchMode(mPark, mSpin)
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

// --- The centralized add: transient adds and their undo ----------------
//
// A centralized RLock adds to readerCount before it knows whether a
// writer has claimed the word or the mode has moved; settle undoes such
// an add. These tests hold an add open by hand (readerCount.Add(1), then
// settle) to pin what the rest of the lock sees in that window.

// TestRWMutexTransientAddUnderClaim: a reader arriving under a writer's
// claim leaves readerCount exactly as it found it, and the writer's drain
// still completes when the registered reader leaves.
func TestRWMutexTransientAddUnderClaim(t *testing.T) {
	var rw RWMutex
	rw.RLock()
	locked := make(chan struct{})
	go func() {
		rw.Lock() // claims, then drains the reader above
		close(locked)
	}()
	for rw.readerCount.Load() >= 0 {
		runtime.Gosched()
	}
	before := rw.readerCount.Load()
	if rw.TryRLock() {
		t.Fatal("TryRLock under a writer's claim succeeded")
	}
	if got := rw.settle(rw.readerCount.Add(1)); got != regClaimed {
		t.Fatalf("settle under a claim = %v, want regClaimed", got)
	}
	if got := rw.readerCount.Load(); got != before {
		t.Fatalf("readerCount = %d after a refused reader, want %d", got, before)
	}
	rw.RUnlock()
	snap := func() string { return fmt.Sprintf("rwmutex: %+v", rw.Stats()) }
	if err := watchdog.Await(locked, 5*time.Second, snap); err != nil {
		t.Fatalf("writer's drain never completed: %v", err)
	}
	if got := rw.readerCount.Load(); got != -rwBias {
		t.Fatalf("readerCount = %d under the write lock, want %d", got, -rwBias)
	}
	rw.Unlock()
	if err := rw.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRWMutexTransientAddWakesDrain: an add that a writer's claim finds
// in place holds up its drain, even when the add will be undone, and the
// undo wakes the drain — no lost wakeup. The add here is a stale
// centralized reader's in a sharded lock, whose drain would otherwise
// find nothing to wait for.
func TestRWMutexTransientAddWakesDrain(t *testing.T) {
	rw := NewRWMutex(WithInitialReaderMode(ModeSharded), WithPollIters(1))
	r := rw.readerCount.Add(1)
	locked := make(chan struct{})
	go func() {
		rw.Lock()
		close(locked)
	}()
	for rw.readerCount.Load() >= 0 {
		runtime.Gosched()
	}
	select {
	case <-locked:
		t.Fatal("writer entered past a pending add")
	case <-time.After(10 * time.Millisecond): // long enough to park
	}
	if got := rw.settle(r); got != regMoved {
		t.Fatalf("settle of a stale centralized add = %v, want regMoved", got)
	}
	snap := func() string { return fmt.Sprintf("rwmutex: %+v", rw.Stats()) }
	if err := watchdog.Await(locked, 5*time.Second, snap); err != nil {
		t.Fatalf("the undo did not wake the writer's drain: %v", err)
	}
	rw.Unlock()
	if err := rw.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRWMutexTransientStaleCentralReader: a reader that loaded the
// centralized mode before a commit to sharded undoes its add when the
// re-check sees the new mode, and its next attempt registers in a cell.
func TestRWMutexTransientStaleCentralReader(t *testing.T) {
	var rw RWMutex
	rw.switchReaderMode(rCentral, rSharded) // lands between the load and the add
	res := rw.settle(rw.readerCount.Add(1))
	if res != regMoved {
		t.Fatalf("settle = %v, want regMoved", res)
	}
	if got := rw.readerCount.Load(); got != 0 {
		t.Fatalf("readerCount = %d after the undo, want 0", got)
	}
	if rw.rlockSlow(nil, res) {
		t.Fatal("rlockSlow with no done aborted")
	}
	if got, cells := rw.readerCount.Load(), rw.ek.Sum(); got != 0 || cells != 1 {
		t.Fatalf("readerCount = %d, cell sum = %d after re-registering, want 0 and 1", got, cells)
	}
	rw.RUnlock()
	if err := rw.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRWMutexTransientTryLock: a TryLock racing a reader's add fails and
// leaves the lock as it was, in either mode the add can meet: the
// centralized one (where it becomes a registration) and a cell-based one
// (where it is undone).
func TestRWMutexTransientTryLock(t *testing.T) {
	for _, m := range []Mode{ModeCAS, ModeSharded} {
		rw := NewRWMutex(WithInitialReaderMode(m))
		r := rw.readerCount.Add(1)
		if rw.TryLock() {
			t.Fatalf("%v: TryLock succeeded over a reader's add", m)
		}
		if got := rw.readerCount.Load(); got != 1 {
			t.Fatalf("%v: readerCount = %d after the failed TryLock, want 1", m, got)
		}
		switch res := rw.settle(r); {
		case m == ModeCAS && res == regOK:
			rw.RUnlock()
		case m == ModeSharded && res == regMoved:
		default:
			t.Fatalf("%v: settle = %v", m, res)
		}
		if err := rw.CheckInvariants(); err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if !rw.TryLock() {
			t.Fatalf("%v: TryLock on a quiet lock failed", m)
		}
		rw.Unlock()
	}
}

// TestRWMutexTransientUnlockResidue: a writer may release while a
// reader's add from under its claim is still pending. Unlock accepts the
// positive residue, and the reader's undo leaves the lock clean.
func TestRWMutexTransientUnlockResidue(t *testing.T) {
	var rw RWMutex
	rw.Lock()
	r := rw.readerCount.Add(1)
	rw.Unlock()
	if got := rw.readerCount.Load(); got != 1 {
		t.Fatalf("readerCount = %d after Unlock, want the residue 1", got)
	}
	if got := rw.settle(r); got != regClaimed {
		t.Fatalf("settle = %v, want regClaimed (the add met the claim)", got)
	}
	if err := rw.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if !rw.TryRLock() {
		t.Fatal("TryRLock after the writer left failed")
	}
	rw.RUnlock()
}

// TestRWMutexNestedReadersNeverWait: a read holder that waits on another
// goroutine's read acquisitions — which sync.RWMutex allows when no
// writer exists — does not deadlock when those registrations fire the
// promotion. With the holder registered, a registration whose detection
// fires keeps its hold instead of taking the write lock, under RLock and
// RLockCtx alike, so no reader waits on another reader.
func TestRWMutexNestedReadersNeverWait(t *testing.T) {
	var rw RWMutex
	rw.RLock()
	done := make(chan error, 1)
	go func() {
		for i := 0; i <= DefaultSpinFailLimit; i++ {
			if i%2 == 0 {
				rw.RLock()
			} else if err := rw.RLockCtx(context.Background()); err != nil {
				done <- err
				return
			}
			rw.RUnlock()
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("a nested reader waited on the holder: %+v, readerCount %d", rw.Stats(), rw.readerCount.Load())
	}
	if got := rw.readerCount.Load(); got != 1 {
		t.Fatalf("readerCount = %d with only the holder registered, want 1", got)
	}
	rw.RUnlock()
	if got := rw.Stats().Readers; got.Mode != ModeCAS || got.Switches != 0 {
		t.Fatalf("Stats().Readers = %+v, want cas with no switch: no reader was ever alone to commit", got)
	}
	if err := rw.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
