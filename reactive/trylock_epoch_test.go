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
)

// TestTryLockUndoVsEpochReaders hammers the TryLock undo path from the
// epoch-registration work: a failing TryLock claims the gate (advancing
// the global grace epoch), sweeps, sees an online reader, retracts the
// claim, and broadcasts to any reader its transient claim parked. The
// test races that claim/advance/retract/re-grant cycle against epoch
// readers (whose stamp-validate window the claim must catch),
// deadline-bounded reader waits, and occasional real writers, and
// verifies that (a) exclusion never breaks — asserted through plain
// unsynchronized variables, so the race detector turns any violation
// into a hard failure — (b) nobody is stranded parked behind a
// retracted claim (watchdog), and (c) the lock is structurally sound
// afterward. The central and sharded registration modes run it too:
// Unlock and both undo paths share one release tail.
func TestTryLockUndoVsEpochReaders(t *testing.T) {
	for _, m := range []Mode{ModeEpoch, ModeCAS, ModeSharded} {
		t.Run(m.String(), func(t *testing.T) { tryLockUndoVsReaders(t, m) })
	}
}

func tryLockUndoVsReaders(t *testing.T, readerMode Mode) {
	rw := NewRWMutex(WithInitialReaderMode(readerMode), WithInitialMode(ModePark))

	const (
		readers  = 4
		tryLocks = 2000
		writes   = 200
	)
	var (
		sharedA, sharedB int // written under the write lock only; the race detector audits
		trySuccess       atomic.Int64
		stop             atomic.Bool
	)

	var readerWG sync.WaitGroup
	for g := 0; g < readers; g++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			for !stop.Load() {
				// Mix plain RLocks with deadline-bounded waits so some
				// readers are parked when a TryLock's transient claim
				// retracts — the re-grant path under test.
				ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
				err := rw.RLockCtx(ctx)
				cancel()
				if err != nil {
					continue
				}
				if sharedA != sharedB { // torn write visible under a read lock
					panic("exclusion broken: torn write observed by reader")
				}
				runtime.Gosched()
				rw.RUnlock()
			}
		}()
	}

	var finiteWG sync.WaitGroup
	finiteWG.Add(2)
	go func() { // real writers keep the drain path live
		defer finiteWG.Done()
		for i := 0; i < writes; i++ {
			rw.Lock()
			sharedA++
			runtime.Gosched() // widen the torn-write window
			sharedB++
			rw.Unlock()
			time.Sleep(50 * time.Microsecond)
		}
	}()
	go func() { // the TryLock hammer
		defer finiteWG.Done()
		for i := 0; i < tryLocks; i++ {
			if rw.TryLock() {
				sharedA++
				sharedB++
				trySuccess.Add(1)
				rw.Unlock()
			}
			if i%64 == 0 {
				runtime.Gosched()
			}
		}
	}()

	snap := func() string {
		s := rw.Stats()
		return fmt.Sprintf("rwmutex: mode=%v waiters=%d readers=%+v", s.Mode, s.Waiters, s.Readers)
	}
	await := func(wg *sync.WaitGroup, who string) {
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		if err := watchdog.Await(done, 30*time.Second, snap); err != nil {
			t.Fatalf("%s stranded: %v", who, err)
		}
	}

	await(&finiteWG, "writer/hammer fleet")
	stop.Store(true)
	await(&readerWG, "reader fleet")

	if sharedA != sharedB {
		t.Fatalf("exclusion broken: A=%d B=%d", sharedA, sharedB)
	}
	if sharedA < writes {
		t.Fatalf("lost writes: %d < %d", sharedA, writes)
	}
	if err := rw.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	t.Logf("TryLock succeeded %d/%d; final A=B=%d", trySuccess.Load(), tryLocks, sharedA)
}
