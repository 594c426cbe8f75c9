package reactive

import (
	"strings"
	"sync"
	"testing"

	"repro/reactive/internal/affinity"
	"repro/reactive/modal"
)

// The invariant checkers must hold on fresh primitives, keep holding
// after real concurrent use, and actually fire on corrupted state —
// a checker that cannot fail verifies nothing.

func TestMutexCheckInvariants(t *testing.T) {
	var m Mutex
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("fresh: %v", err)
	}

	m.Lock()
	if err := m.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "state") {
		t.Fatalf("held lock not caught: %v", err)
	}
	m.Unlock()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				m.Lock()
				m.Unlock() //nolint:staticcheck // empty section on purpose
			}
		}()
	}
	wg.Wait()
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("after contention: %v", err)
	}
}

func TestRWMutexCheckInvariants(t *testing.T) {
	for _, mode := range []Mode{ModeCAS, ModeSharded, ModeEpoch} {
		rw := NewRWMutex(WithInitialReaderMode(mode))
		if err := rw.CheckInvariants(); err != nil {
			t.Fatalf("%v fresh: %v", mode, err)
		}

		rw.RLock()
		err := rw.CheckInvariants()
		if mode == ModeCAS {
			if err == nil || !strings.Contains(err.Error(), "readerCount") {
				t.Fatalf("%v held read lock not caught: %v", mode, err)
			}
		} else if err == nil || !strings.Contains(err.Error(), "deltas sum") {
			t.Fatalf("%v held read lock not caught: %v", mode, err)
		}
		rw.RUnlock()

		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 100; i++ {
					rw.RLock()
					rw.RUnlock()
					if i%10 == 0 {
						rw.Lock()
						rw.Unlock()
					}
				}
			}()
		}
		wg.Wait()
		if err := rw.CheckInvariants(); err != nil {
			t.Fatalf("%v after contention: %v", mode, err)
		}
	}
}

// TestRWMutexChainWalkOneCellArray walks the registration chain
// central → sharded → epoch → sharded → central by forced commits. Both
// cell-based protocols register in the kernel's one per-P array, so
// Shards reports that array's size in every mode from the first
// cell-based one on, a read held in either of them shows in the same
// sum, and the lock checks clean at every step.
func TestRWMutexChainWalkOneCellArray(t *testing.T) {
	var rw RWMutex
	if got := rw.Stats().Readers.Shards; got != 0 {
		t.Fatalf("Shards = %d before any cell-based mode, want 0", got)
	}
	walk := []modal.Mode{rCentral, rSharded, rEpoch, rSharded, rCentral}
	for i, to := range walk[1:] {
		rw.switchReaderMode(walk[i], to)
		st := rw.Stats().Readers
		if st.Mode != readerModes[to] {
			t.Fatalf("step %d: registration mode = %v, want %v", i, st.Mode, readerModes[to])
		}
		if st.Shards != rw.ek.Cells() || st.Shards != affinity.Shards() {
			t.Fatalf("step %d (%v): Shards = %d, want the kernel's %d cells (affinity.Shards() = %d)",
				i, st.Mode, st.Shards, rw.ek.Cells(), affinity.Shards())
		}
		rw.RLock()
		if sum := rw.ek.Sum(); to != rCentral && sum != 1 {
			t.Fatalf("step %d (%v): a held read lock left the kernel's cell sum at %d, want 1", i, st.Mode, sum)
		}
		rw.RUnlock()
		rw.Lock()
		rw.Unlock()
		if err := rw.CheckInvariants(); err != nil {
			t.Fatalf("step %d (%v): %v", i, st.Mode, err)
		}
	}
}

// TestRWMutexCheckCatchesGateSkew pins the wiring between RWMutex's
// checker and the epoch kernel's: kernel states that disagree with the
// lock's quiescent state surface through CheckInvariants. The kernel's
// own Check cases live in reactive/internal/epoch.
func TestRWMutexCheckCatchesGateSkew(t *testing.T) {
	rw := NewRWMutex(WithInitialReaderMode(ModeEpoch))
	rw.RLock()
	rw.RUnlock()
	rw.ek.Select(false) // mode bit off while the engine says epoch
	if err := rw.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "mode bit") {
		t.Fatalf("gate/engine skew not caught: %v", err)
	}
	rw.ek.Select(true)
	rw.ek.Claim() // a claim no writer holds
	if err := rw.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "claim") {
		t.Fatalf("stale claim not caught: %v", err)
	}
	rw.ek.Release()
	if err := rw.CheckInvariants(); err != nil {
		t.Fatalf("restored: %v", err)
	}
}

func TestFetchOpAndCounterCheckInvariants(t *testing.T) {
	c := NewCounter()
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("fresh counter: %v", err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				c.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != 8*500 {
		t.Fatalf("count %d, want %d", got, 8*500)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("after contention: %v", err)
	}

	c.f.sweepLock.TryLock()
	if err := c.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "sweep lock") {
		t.Fatalf("held sweep lock not caught: %v", err)
	}
	c.f.sweepLock.Unlock()

	f := NewFetchOp(func(a, b int64) int64 {
		if a > b {
			return a
		}
		return b
	}, 0)
	f.Apply(41)
	f.Apply(7)
	if got := f.Value(); got != 41 {
		t.Fatalf("max = %d, want 41", got)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatalf("fetchop after use: %v", err)
	}
}
