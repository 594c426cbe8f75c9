package reactive

import (
	"sync"
	"testing"
	"time"

	"repro/reactive/policy"
)

// TestSpinDetectionMatchesDocumentedStreak pins the documented detection
// semantics: DefaultSpinFailLimit *consecutive contended acquisitions*
// switch spin → park. (A prior implementation additionally required each
// acquisition to fail more than the limit individually, so switching took
// roughly twice the documented streak.)
func TestSpinDetectionMatchesDocumentedStreak(t *testing.T) {
	var m Mutex
	for i := 0; i < DefaultSpinFailLimit-1; i++ {
		m.noteSpinAcquire(1)
		if got := Mode(m.eng.Mode()); got != ModeSpin {
			t.Fatalf("switched after %d contended acquisitions, want %d", i+1, DefaultSpinFailLimit)
		}
	}
	m.noteSpinAcquire(1)
	if got := Mode(m.eng.Mode()); got != ModePark {
		t.Fatalf("mode = %v after %d consecutive contended acquisitions, want park", got, DefaultSpinFailLimit)
	}
	if m.Stats().Switches != 1 {
		t.Fatalf("switches = %d, want 1", m.Stats().Switches)
	}
}

// TestSpinDetectionStreakBroken: an uncontended acquisition resets the
// contended streak.
func TestSpinDetectionStreakBroken(t *testing.T) {
	var m Mutex
	for round := 0; round < 3; round++ {
		for i := 0; i < DefaultSpinFailLimit-1; i++ {
			m.noteSpinAcquire(1)
		}
		m.noteSpinAcquire(0) // uncontended: break the streak
	}
	if got := Mode(m.eng.Mode()); got != ModeSpin {
		t.Fatalf("mode = %v after broken streaks, want spin", got)
	}
}

// TestSpinDetectionSingleFailureCounts: one failed test&set makes an
// acquisition contended; it does not need to fail SpinFailLimit times on
// its own.
func TestSpinDetectionSingleFailureCounts(t *testing.T) {
	m := New(WithSpinFailLimit(1))
	m.noteSpinAcquire(1)
	if got := Mode(m.eng.Mode()); got != ModePark {
		t.Fatalf("mode = %v with SpinFailLimit=1 after one contended acquisition, want park", got)
	}
}

func TestNewDefaultsMatchZeroValue(t *testing.T) {
	m := New()
	var z Mutex
	if m.cfg.failLimit() != z.cfg.failLimit() ||
		m.cfg.emptyLim() != z.cfg.emptyLim() ||
		m.cfg.pollBudget() != z.cfg.pollBudget() {
		t.Fatal("New() tunables differ from the zero value's")
	}
	if m.cfg.failLimit() != DefaultSpinFailLimit ||
		m.cfg.emptyLim() != DefaultEmptyLimit ||
		m.cfg.pollBudget() != DefaultPollIters {
		t.Fatal("defaults do not match the package consts")
	}
}

func TestOptionsConfigureThresholds(t *testing.T) {
	m := New(WithSpinFailLimit(7), WithEmptyLimit(9), WithPollIters(11))
	if m.cfg.failLimit() != 7 || m.cfg.emptyLim() != 9 || m.cfg.pollBudget() != 11 {
		t.Fatalf("options not applied: got (%d,%d,%d)",
			m.cfg.failLimit(), m.cfg.emptyLim(), m.cfg.pollBudget())
	}
	for _, bad := range []func(){
		func() { WithSpinFailLimit(0) },
		func() { WithEmptyLimit(-1) },
		func() { WithPollIters(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("non-positive option value must panic")
				}
			}()
			bad()
		}()
	}
}

// TestInjectedPolicyAlwaysSwitch: with the always-switch policy a single
// contended acquisition changes protocols, regardless of the streak
// thresholds.
func TestInjectedPolicyAlwaysSwitch(t *testing.T) {
	m := New(WithPolicy(policy.AlwaysSwitch{}))
	m.noteSpinAcquire(1)
	if got := Mode(m.eng.Mode()); got != ModePark {
		t.Fatalf("mode = %v after one contended acquisition under always-switch, want park", got)
	}
}

// TestInjectedPolicyCompetitive: the 3-competitive policy accumulates
// residual cost (ResidualCheapHigh per contended acquisition) across
// streak breaks and switches when it crosses the threshold.
func TestInjectedPolicyCompetitive(t *testing.T) {
	m := New(WithPolicy(policy.NewCompetitive(3 * ResidualCheapHigh)))
	m.noteSpinAcquire(1)
	m.noteSpinAcquire(0) // streak break: competitive must not care
	m.noteSpinAcquire(1)
	if got := Mode(m.eng.Mode()); got != ModeSpin {
		t.Fatal("switched before cumulative residual crossed the threshold")
	}
	m.noteSpinAcquire(1)
	if got := Mode(m.eng.Mode()); got != ModePark {
		t.Fatalf("mode = %v after residual crossed threshold, want park", got)
	}
}

// TestDetectorRequiesces: once a decaying policy's pressure drains, the
// detector re-arms its fast-path elision (dirty flag clears), so the
// uncontended path stops touching the policy lock.
func TestDetectorRequiesces(t *testing.T) {
	m := New(WithPolicy(policy.NewHysteresis(3, 3)))
	m.noteSpinAcquire(1)
	if !m.eng.Dirty() {
		t.Fatal("dirty not set by a sub-optimal vote")
	}
	m.noteSpinAcquire(0) // optimal: hysteresis resets, policy quiescent
	if m.eng.Dirty() {
		t.Fatal("dirty not cleared after the policy re-quiesced")
	}
}

// TestInjectedPolicyDrivesBothDirections: hysteresis policy wired through
// both detection directions returns the mutex to spin mode.
func TestInjectedPolicyDrivesBothDirections(t *testing.T) {
	m := New(WithPolicy(policy.NewHysteresis(2, 3)))
	m.noteSpinAcquire(1)
	m.noteSpinAcquire(1)
	if got := Mode(m.eng.Mode()); got != ModePark {
		t.Fatalf("mode = %v, want park", got)
	}
	// Three uncontended unlocks in park mode switch back.
	for i := 0; i < 3; i++ {
		m.Lock()
		m.Unlock()
	}
	if got := Mode(m.eng.Mode()); got != ModeSpin {
		t.Fatalf("mode = %v after uncontended park-mode unlocks, want spin", got)
	}
	if m.Stats().Switches != 2 {
		t.Fatalf("switches = %d, want 2", m.Stats().Switches)
	}
}

// TestStressForcedModeSwitches hammers Lock/Unlock from many goroutines
// while protocol changes are forced in both directions, under the race
// detector when enabled. The timeout guard asserts that no waiter is
// stranded by a Park→Spin transition (the switch must wake a parked
// waiter) or loses a wakeup across any transition.
func TestStressForcedModeSwitches(t *testing.T) {
	m := New(WithPollIters(4)) // park quickly so transitions catch parked waiters
	const goroutines = 24
	iters := 400
	if testing.Short() {
		iters = 150
	}
	var wg sync.WaitGroup
	counter := 0
	stop := make(chan struct{})
	// Forcer: flip protocols as fast as possible, so waiters parked in
	// one mode are released by unlocks in the other, in both directions.
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
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				m.Lock()
				counter++
				m.Unlock()
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		close(stop)
		t.Fatalf("stranded waiter: only %d/%d ops completed across forced mode switches",
			counter, goroutines*iters)
	}
	close(stop)
	fwg.Wait()
	if counter != goroutines*iters {
		t.Fatalf("counter = %d, want %d", counter, goroutines*iters)
	}
}
