package reactive

import "testing"

// mustPanicMsg runs f and asserts it panics with exactly want — the
// misuse messages are API surface (callers grep crash logs for them),
// so they are pinned byte-for-byte, stdlib style.
func mustPanicMsg(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want %q", want)
		}
		if got, ok := r.(string); !ok || got != want {
			t.Fatalf("panicked with %v, want %q", r, want)
		}
	}()
	f()
}

// TestMisusePanics pins lock-misuse detection to stdlib parity: every
// unbalanced Unlock/RUnlock panics with a reactive:-prefixed message,
// in every registration mode. The sharded and epoch reader modes have
// no per-reader check, so their detection point is the next writer's
// drain sweep — the panic fires on the writer's goroutine (here the
// same goroutine, via TryLock).
func TestMisusePanics(t *testing.T) {
	const (
		unlockMutex = "reactive: Unlock of unlocked Mutex"
		unlockRW    = "reactive: Unlock of unlocked RWMutex"
		runlockRW   = "reactive: RUnlock of unlocked RWMutex"
	)

	cases := []struct {
		name string
		want string
		f    func()
	}{
		{"Mutex/unlock of never-locked", unlockMutex, func() {
			var m Mutex
			m.Unlock()
		}},
		{"Mutex/double unlock", unlockMutex, func() {
			var m Mutex
			m.Lock()
			m.Unlock()
			m.Unlock()
		}},
		{"RWMutex/unlock of never-locked", unlockRW, func() {
			var rw RWMutex
			rw.Unlock()
		}},
		{"RWMutex/double unlock", unlockRW, func() {
			var rw RWMutex
			rw.Lock()
			rw.Unlock()
			rw.Unlock()
		}},
		{"RWMutex/unlock while read-locked", unlockRW, func() {
			var rw RWMutex
			rw.RLock()
			rw.Unlock()
		}},
		{"RWMutex/double unlock past a reader's pending add", unlockRW, func() {
			var rw RWMutex
			rw.Lock()
			rw.readerCount.Add(1) // a reader's add under the claim, not yet undone
			rw.Unlock()           // the residue of 1 is not misuse
			rw.Unlock()
		}},
		{"RWMutex/runlock central, never locked", runlockRW, func() {
			var rw RWMutex
			rw.RUnlock()
		}},
		{"RWMutex/runlock central, double", runlockRW, func() {
			var rw RWMutex
			rw.RLock()
			rw.RUnlock()
			rw.RUnlock()
		}},
		{"RWMutex/runlock sharded, caught at writer sweep", runlockRW, func() {
			rw := NewRWMutex(WithInitialReaderMode(ModeSharded))
			rw.RLock()
			rw.RUnlock() // build the slots; balanced so far
			rw.RUnlock() // misuse: the slot deltas now sum to -1
			rw.TryLock() // first writer sweep under a claim proves it
		}},
		{"RWMutex/runlock epoch, caught at writer sweep", runlockRW, func() {
			rw := NewRWMutex(WithInitialReaderMode(ModeEpoch))
			rw.RLock()
			rw.RUnlock()
			rw.RUnlock()
			rw.TryLock()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mustPanicMsg(t, tc.want, tc.f)
		})
	}
}
