package reactive

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/reactive/policy"
)

// The panic-safety contract: a panicking injected policy, or a
// panicking FetchOp user op, surfaces as a panic on the goroutine that
// tripped it — but never with a lock still held or an operand lost.
// These tests throw panics through every detection call site that runs
// while a lock is held and verify the primitive stays usable.

// bombPolicy panics on the selected events once armed.
type bombPolicy struct {
	armed                        bool
	onOptimal, onSuboptimal, die bool
	votes                        int
}

func (b *bombPolicy) Name() string { return "bomb" }
func (b *bombPolicy) Suboptimal(policy.Direction, uint64) bool {
	if b.armed && b.onSuboptimal {
		panic("bomb: suboptimal")
	}
	b.votes++
	return false
}
func (b *bombPolicy) Optimal(policy.Direction) {
	if b.armed && b.onOptimal {
		panic("bomb: optimal")
	}
}
func (b *bombPolicy) Switched() {}

// catchPanic runs f, returning the recovered panic value as a string
// ("" if f returned normally).
func catchPanic(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			if s, ok := r.(string); ok {
				msg = s
			} else {
				msg = "non-string panic"
			}
		}
	}()
	f()
	return ""
}

func TestMutexSurvivesPolicyPanicOnGood(t *testing.T) {
	b := &bombPolicy{onOptimal: true}
	m := New(WithPolicy(b))

	// Raise switching pressure so Good reaches the policy (it is elided
	// while the engine is quiescent): one contended spin acquisition
	// votes Suboptimal and sets the dirty flag.
	m.Lock()
	done := make(chan struct{})
	go func() { m.Lock(); m.Unlock(); close(done) }()
	time.Sleep(10 * time.Millisecond) // let the spinner fail at least once
	m.Unlock()
	<-done
	if b.votes == 0 {
		t.Skip("contended acquisition did not reach the policy; cannot arm")
	}

	b.armed = true
	msg := catchPanic(func() {
		for i := 0; i < 100; i++ { // fast-path Good fires the bomb
			m.Lock()
			m.Unlock()
		}
	})
	b.armed = false
	if msg != "bomb: optimal" {
		t.Fatalf("panic %q, want the policy bomb", msg)
	}
	// The guard must have released the lock before re-raising.
	if !m.TryLock() {
		t.Fatal("mutex stranded locked after policy panic")
	}
	m.Unlock()
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("after policy panic: %v", err)
	}
}

func TestMutexSurvivesPolicyPanicOnVote(t *testing.T) {
	b := &bombPolicy{onSuboptimal: true, armed: true}
	m := New(WithPolicy(b))

	// Force a contended spin acquisition on a second goroutine: its
	// noteSpinAcquire votes Suboptimal, the bomb fires, and the guard
	// must release the lock it had just acquired.
	m.Lock()
	var msg string
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		msg = catchPanic(func() { m.Lock() })
	}()
	time.Sleep(10 * time.Millisecond)
	m.Unlock()
	wg.Wait()
	if msg != "bomb: suboptimal" {
		t.Fatalf("panic %q, want the policy bomb", msg)
	}
	b.armed = false
	if !m.TryLock() {
		t.Fatal("mutex stranded locked after policy panic")
	}
	m.Unlock()
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("after policy panic: %v", err)
	}
}

func TestRWMutexSurvivesPolicyPanicInUnlock(t *testing.T) {
	// The policy lives on the writer mutex, whose park-mode Unlock votes
	// after releasing its lock word — the last step of RWMutex.Unlock, so
	// the panic must reach the caller with both claims retracted and the
	// write lock free.
	b := &bombPolicy{onSuboptimal: true, armed: true}
	rw := NewRWMutex(WithPolicy(b), WithInitialMode(ModePark))
	msg := catchPanic(func() {
		for i := 0; i < 100; i++ {
			rw.Lock()
			rw.Unlock()
		}
	})
	if msg != "bomb: suboptimal" {
		t.Fatalf("panic %q, want the policy bomb", msg)
	}
	b.armed = false
	if !rw.TryLock() {
		t.Fatal("RWMutex stranded after policy panic in Unlock")
	}
	rw.Unlock()
	if err := rw.CheckInvariants(); err != nil {
		t.Fatalf("after policy panic: %v", err)
	}
}

func TestFetchOpPanickingOpLosesNoOperand(t *testing.T) {
	// A max-accumulator whose op panics on demand. Deposits land in
	// cells (sharded mode); the reconciling sweep's fold panics, and the
	// rescue bank must carry every harvested operand to the next sweep.
	var boom bool
	f := NewFetchOp(func(a, b int64) int64 {
		if boom {
			panic("bomb: op")
		}
		if a > b {
			return a
		}
		return b
	}, 0, WithInitialMode(ModeSharded))

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				f.Apply(int64(g*1000 + i))
			}
		}(g)
	}
	wg.Wait()

	boom = true
	msg := catchPanic(func() { f.Value() })
	if !strings.Contains(msg, "bomb: op") {
		t.Fatalf("panic %q, want the op bomb", msg)
	}
	// The sweep lock must not be stranded, and once the op heals the
	// harvested-but-unfolded operands must reappear.
	boom = false
	if got, want := f.Value(), int64(3099); got != want {
		t.Fatalf("Value after healed op = %d, want %d (operands lost by the panicking fold)", got, want)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatalf("after op panic: %v", err)
	}
}

func TestFetchOpPanicInApplyLosesOnlyItsOwnOperand(t *testing.T) {
	// casFold panics before its CAS, so an Apply whose op panics simply
	// never lands — documented clean-failure semantics, with the shared
	// word untouched.
	calls := 0
	f := NewFetchOp(func(a, b int64) int64 {
		calls++
		if calls == 2 {
			panic("bomb: apply")
		}
		return a + b
	}, 0)
	f.Apply(7) // first call folds into base via CAS mode
	msg := catchPanic(func() { f.Apply(100) })
	if msg != "bomb: apply" {
		t.Fatalf("panic %q, want the apply bomb", msg)
	}
	if got := f.Value(); got != 7 {
		t.Fatalf("Value = %d, want 7 (the panicked Apply must not half-land)", got)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatalf("after apply panic: %v", err)
	}
}
