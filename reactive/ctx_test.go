package reactive

// Tests for context-aware acquisition: the already-cancelled fast paths,
// prompt cancellation in both wait protocols, the grant-vs-cancel handoff
// (no lost wakeups, no stranded waiters — including across forced spin↔park
// mode switches, with the timeout-guard pattern from sharding_test.go),
// the writer-drain undo, and the zero-allocation pins for the Ctx wrappers.

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// cancelledCtx returns a context that is already done.
func cancelledCtx() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

// TestAlreadyCancelledFastPath: every Ctx acquisition returns ctx.Err()
// immediately — without acquiring, even when the primitive is free.
func TestAlreadyCancelledFastPath(t *testing.T) {
	ctx := cancelledCtx()
	var m Mutex
	if err := m.LockCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Mutex.LockCtx(cancelled) = %v, want context.Canceled", err)
	}
	if !m.TryLock() {
		t.Fatal("cancelled LockCtx left the mutex held")
	}
	m.Unlock()

	var rw RWMutex
	if err := rw.LockCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("RWMutex.LockCtx(cancelled) = %v, want context.Canceled", err)
	}
	if err := rw.RLockCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("RWMutex.RLockCtx(cancelled) = %v, want context.Canceled", err)
	}
	if !rw.TryLock() {
		t.Fatal("cancelled LockCtx left the RWMutex claimed")
	}
	rw.Unlock()

	f := NewFetchOp(func(a, b int64) int64 { return a + b }, 0)
	if _, err := f.ValueCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("FetchOp.ValueCtx(cancelled) = %v, want context.Canceled", err)
	}
	var c Counter
	if _, err := c.LoadCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Counter.LoadCtx(cancelled) = %v, want context.Canceled", err)
	}
}

// TestLockCtxBackgroundEquivalentToLock: the Ctx variants with a
// background context acquire and release like the plain calls.
func TestLockCtxBackgroundEquivalentToLock(t *testing.T) {
	var m Mutex
	if err := m.LockCtx(context.Background()); err != nil {
		t.Fatalf("LockCtx(Background) = %v", err)
	}
	if m.TryLock() {
		t.Fatal("LockCtx did not hold the lock")
	}
	m.Unlock()

	var rw RWMutex
	if err := rw.RLockCtx(context.Background()); err != nil {
		t.Fatalf("RLockCtx(Background) = %v", err)
	}
	rw.RUnlock()
	if err := rw.LockCtx(context.Background()); err != nil {
		t.Fatalf("RWMutex.LockCtx(Background) = %v", err)
	}
	rw.Unlock()
}

// assertPromptErr runs attempt and fails unless it returns the wanted
// error well before the stranded-waiter guard fires.
func assertPromptErr(t *testing.T, name string, want error, attempt func() error) {
	t.Helper()
	errc := make(chan error, 1)
	go func() { errc <- attempt() }()
	select {
	case err := <-errc:
		if !errors.Is(err, want) {
			t.Fatalf("%s = %v, want %v", name, err, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("%s did not return after cancellation (stranded waiter?)", name)
	}
}

// TestLockCtxCancelBothModes: a cancelled LockCtx returns promptly while
// spinning and while parked, and the mutex stays fully usable afterward.
func TestLockCtxCancelBothModes(t *testing.T) {
	for _, mode := range []Mode{ModeSpin, ModePark} {
		m := New(WithInitialMode(mode), WithPollIters(2))
		m.Lock()
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(10 * time.Millisecond) // let the waiter spin or park
			cancel()
		}()
		assertPromptErr(t, "LockCtx/"+mode.String(), context.Canceled, func() error {
			return m.LockCtx(ctx)
		})
		m.Unlock()
		// No waiter may be stranded and the lock must still cycle.
		m.Lock()
		m.Unlock()
		if w := m.Stats().Waiters; w != 0 {
			t.Fatalf("Waiters = %d after cancelled %v-mode wait, want 0", w, mode)
		}
	}
}

// TestLockCtxDeadline: a deadline expiring mid-park surfaces as
// context.DeadlineExceeded.
func TestLockCtxDeadline(t *testing.T) {
	m := New(WithInitialMode(ModePark), WithPollIters(2))
	m.Lock()
	defer m.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	assertPromptErr(t, "LockCtx(deadline)", context.DeadlineExceeded, func() error {
		return m.LockCtx(ctx)
	})
}

func TestTryLockFor(t *testing.T) {
	var m Mutex
	if !m.TryLockFor(time.Millisecond) {
		t.Fatal("TryLockFor on a free mutex failed")
	}
	if m.TryLockFor(5 * time.Millisecond) {
		t.Fatal("TryLockFor on a held mutex succeeded")
	}
	if m.TryLockFor(0) {
		t.Fatal("TryLockFor(0) on a held mutex succeeded")
	}
	// A release during the wait window lets TryLockFor in.
	go func() {
		time.Sleep(5 * time.Millisecond)
		m.Unlock()
	}()
	if !m.TryLockFor(10 * time.Second) {
		t.Fatal("TryLockFor missed a release inside its window")
	}
	m.Unlock()
}

// TestLockCtxHandoffNotLost is the grant-vs-cancel race distilled: waiter
// A (cancellable) and waiter B (plain Lock) park behind a holder; the
// holder unlocks at the same moment A is cancelled. Whichever of the two
// events reaches A's grant first, B must end up with the lock — a grant
// delivered to the cancelled waiter has to be passed on, not dropped.
func TestLockCtxHandoffNotLost(t *testing.T) {
	rounds := 200
	if testing.Short() {
		rounds = 60
	}
	for i := 0; i < rounds; i++ {
		m := New(WithInitialMode(ModePark), WithPollIters(1))
		m.Lock()
		ctx, cancel := context.WithCancel(context.Background())
		aErr := make(chan error, 1)
		go func() { aErr <- m.LockCtx(ctx) }()
		bDone := make(chan struct{})
		go func() {
			m.Lock()
			m.Unlock()
			close(bDone)
		}()
		time.Sleep(200 * time.Microsecond) // let A and B park
		go cancel()
		m.Unlock()
		// Resolve A first: if A won the race and acquired before the
		// cancel landed, it holds the lock and must release it for B.
		select {
		case err := <-aErr:
			if err == nil {
				m.Unlock()
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: cancelled waiter A stranded", i)
		}
		select {
		case <-bDone:
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: waiter B stranded — a wakeup was lost to a cancelled waiter", i)
		}
		cancel()
	}
}

// TestMutexCancellationStress races LockCtx timeouts against Unlock
// handoffs and forced spin↔park mode switches: no lost wakeups, no
// stranded waiters, mutual exclusion intact. Run under -race in CI (and
// under the reactive_noprocpin fallback tag, which shares this file).
func TestMutexCancellationStress(t *testing.T) {
	m := New(WithPollIters(2)) // park quickly: exercise both wait phases
	const goroutines = 16
	iters := 300
	if testing.Short() {
		iters = 100
	}
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
				m.switchMode(mSpin, mPark)
			} else {
				m.switchMode(mPark, mSpin)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}()
	var held atomic.Int32
	var acquired, abandoned atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if (i+g)%4 == 0 {
					// Cancellable attempt with a timeout short enough to
					// expire mid-wait under contention.
					d := time.Duration(i%3) * 100 * time.Microsecond
					ctx, cancel := context.WithTimeout(context.Background(), d)
					err := m.LockCtx(ctx)
					cancel()
					if err != nil {
						abandoned.Add(1)
						continue
					}
				} else {
					m.Lock()
				}
				if held.Add(1) != 1 {
					t.Error("mutual exclusion violated under cancellation churn")
				}
				held.Add(-1)
				m.Unlock()
				acquired.Add(1)
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatalf("stranded waiter under cancellation churn: %d acquired, %d abandoned",
			acquired.Load(), abandoned.Load())
	}
	close(stop)
	fwg.Wait()
	m.Lock()
	m.Unlock()
	if w := m.Stats().Waiters; w != 0 {
		t.Fatalf("Waiters = %d after stress, want 0", w)
	}
}

// TestRWMutexCancellationStress is the RWMutex version: RLockCtx and
// LockCtx timeouts race writer drains, reader broadcasts, and forced
// switches of BOTH modal objects (the writer mutex's spin/park protocol
// and the registration protocol).
func TestRWMutexCancellationStress(t *testing.T) {
	rw := NewRWMutex(WithPollIters(2))
	const writers, readers = 4, 12
	iters := 200
	if testing.Short() {
		iters = 80
	}
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
			switch i % 4 {
			case 0:
				rw.w.switchMode(mSpin, mPark)
			case 1:
				rw.switchReaderMode(rCentral, rSharded)
			case 2:
				rw.w.switchMode(mPark, mSpin)
			default:
				rw.switchReaderMode(rSharded, rCentral)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}()
	var inWriter, inReaders atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if (i+g)%3 == 0 {
					d := time.Duration(i%3) * 100 * time.Microsecond
					ctx, cancel := context.WithTimeout(context.Background(), d)
					err := rw.LockCtx(ctx)
					cancel()
					if err != nil {
						continue
					}
				} else {
					rw.Lock()
				}
				if inWriter.Add(1) != 1 || inReaders.Load() != 0 {
					t.Error("writer overlapped a writer or reader under cancellation churn")
				}
				inWriter.Add(-1)
				rw.Unlock()
			}
		}(g)
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if (i+g)%3 == 0 {
					d := time.Duration(i%3) * 100 * time.Microsecond
					ctx, cancel := context.WithTimeout(context.Background(), d)
					err := rw.RLockCtx(ctx)
					cancel()
					if err != nil {
						continue
					}
				} else {
					rw.RLock()
				}
				inReaders.Add(1)
				if inWriter.Load() != 0 {
					t.Error("reader overlapped a writer under cancellation churn")
				}
				inReaders.Add(-1)
				rw.RUnlock()
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("stranded reader or writer under cancellation churn")
	}
	close(stop)
	fwg.Wait()
	rw.Lock()
	rw.Unlock()
	rw.RLock()
	rw.RUnlock()
}

// TestRLockCtxCancelledInRegistrationRaces pins the slow-path check
// placement: a reader whose context is already done when it enters the
// slow path aborts before its next attempt even with no writer claim in
// place — the registration-race retry paths (protocol-change
// redispatches, a fired promotion) must not starve the cancellation
// check, and neither leaves an add behind.
func TestRLockCtxCancelledInRegistrationRaces(t *testing.T) {
	var rw RWMutex
	if !rw.rlockSlow(cancelledCtx().Done(), regMoved) {
		t.Fatal("rlockSlow(cancelled, moved, no writer) registered, want aborted")
	}
	// A fired promotion arrives registered: the slow path undoes the add
	// and commits before it looks at done.
	rw.readerCount.Add(1)
	if !rw.rlockSlow(cancelledCtx().Done(), regPromote) {
		t.Fatal("rlockSlow(cancelled, promote, no writer) registered, want aborted")
	}
	if got := rw.Stats().Readers.Mode; got != ModeSharded {
		t.Fatalf("reader mode = %v after a promotion, want sharded", got)
	}
	// No registration may have leaked.
	if err := rw.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	rw.Lock()
	rw.Unlock()
}

// TestRWMutexLockCtxCancelDuringDrain: a writer cancelled while draining
// an active reader retracts its claim — later readers proceed at once,
// and the next writer acquires cleanly after the reader leaves.
func TestRWMutexLockCtxCancelDuringDrain(t *testing.T) {
	for _, mode := range []Mode{ModeCAS, ModeSharded} {
		rw := NewRWMutex(WithInitialReaderMode(mode), WithPollIters(2))
		rw.RLock() // the reader the writer will stall draining
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(10 * time.Millisecond) // let the writer park in its drain
			cancel()
		}()
		assertPromptErr(t, "LockCtx(drain)/"+mode.String(), context.Canceled, func() error {
			return rw.LockCtx(ctx)
		})
		// Claim retracted: a new reader must not block behind the
		// cancelled writer.
		extra := make(chan struct{})
		go func() {
			rw.RLock()
			rw.RUnlock()
			close(extra)
		}()
		select {
		case <-extra:
		case <-time.After(10 * time.Second):
			t.Fatalf("%v: reader blocked by a cancelled writer's leftover claim", mode)
		}
		rw.RUnlock()
		rw.Lock() // and writing still works once the reader is gone
		rw.Unlock()
	}
}

// TestRWMutexRLockCtxCancelWhileParked: a parked reader cancelled under a
// writer hold returns promptly and leaves no residue; readers parked
// without cancellation still wake on the writer's release.
func TestRWMutexRLockCtxCancelWhileParked(t *testing.T) {
	rw := NewRWMutex(WithInitialMode(ModePark), WithPollIters(1))
	rw.Lock()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	assertPromptErr(t, "RLockCtx(parked)", context.Canceled, func() error {
		return rw.RLockCtx(ctx)
	})
	// A second, uncancelled reader must still be woken by the release.
	got := make(chan struct{})
	go func() {
		rw.RLock()
		rw.RUnlock()
		close(got)
	}()
	time.Sleep(5 * time.Millisecond) // let it park behind the hold
	rw.Unlock()
	select {
	case <-got:
	case <-time.After(10 * time.Second):
		t.Fatal("reader stranded after a sibling's cancellation")
	}
}

// TestValueCtxCancelDuringSweep: a ValueCtx waiting for a held sweep
// window gives up with ctx.Err(); the window still works once released.
func TestValueCtxCancelDuringSweep(t *testing.T) {
	f := NewFetchOp(func(a, b int64) int64 { return a + b }, 0,
		WithInitialMode(ModeSharded), WithPollIters(2))
	f.Apply(41)
	f.Apply(1)
	f.sweepLock.TryLock() // hold the sweep window
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	assertPromptErr(t, "ValueCtx(held sweep)", context.DeadlineExceeded, func() error {
		_, err := f.ValueCtx(ctx)
		return err
	})
	f.releaseSweep()
	v, err := f.ValueCtx(context.Background())
	if err != nil || v != 42 {
		t.Fatalf("ValueCtx after release = (%d, %v), want (42, nil)", v, err)
	}
	if w := f.Stats().Waiters; w != 0 {
		t.Fatalf("Waiters = %d after cancelled sweep wait, want 0", w)
	}
}

// TestCtxZeroAllocs pins the wrapper costs: uncontended Lock and
// LockCtx(Background) — and their RWMutex read analogues — allocate
// nothing, so the context-aware redesign is free for existing callers.
func TestCtxZeroAllocs(t *testing.T) {
	ctx := context.Background()
	var m Mutex
	assertZeroAllocs(t, "Mutex.Lock/uncontended", func() {
		m.Lock()
		m.Unlock()
	})
	var mc Mutex
	assertZeroAllocs(t, "Mutex.LockCtx/background-uncontended", func() {
		if mc.LockCtx(ctx) != nil {
			t.Fatal("LockCtx failed")
		}
		mc.Unlock()
	})
	var rw RWMutex
	assertZeroAllocs(t, "RWMutex.RLockCtx/background-uncontended", func() {
		if rw.RLockCtx(ctx) != nil {
			t.Fatal("RLockCtx failed")
		}
		rw.RUnlock()
	})
}
