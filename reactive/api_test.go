package reactive

import (
	"fmt"
	"slices"
	"strings"
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
	opts := []Option{WithSpinFailLimit(7), WithEmptyLimit(9), WithPollIters(11)}
	// Each primitive keeps one copy of the tunables: Map's lives in its
	// writer lock, as RWMutex's does (TestRWMutexOptionsReachWriterMutex).
	for name, cfg := range map[string]*config{
		"Mutex":   &New(opts...).cfg,
		"Counter": &NewCounter(opts...).f.cfg,
		"FetchOp": &NewFetchOp(func(a, b int64) int64 { return a * b }, 1, opts...).cfg,
		"Map":     &NewMap[int, int](opts...).wl.cfg,
	} {
		if cfg.failLimit() != 7 || cfg.emptyLim() != 9 || cfg.pollBudget() != 11 {
			t.Fatalf("%s: options not applied: got (%d,%d,%d)",
				name, cfg.failLimit(), cfg.emptyLim(), cfg.pollBudget())
		}
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

// TestConstructorsInitialModes: the one construction step walks each
// constructor's engine to every mode its chain has, and panics on every
// other mode with one message that lists the chain. WithInitialReaderMode
// checks its mode against the registration chain when it is called.
func TestConstructorsInitialModes(t *testing.T) {
	mul := func(a, b int64) int64 { return a * b }
	for _, c := range []struct {
		name  string
		modes []Mode
		build func(Mode) Mode // the mode the built primitive reports
	}{
		{"New", []Mode{ModeSpin, ModePark},
			func(m Mode) Mode { return New(WithInitialMode(m)).Stats().Mode }},
		{"NewRWMutex", []Mode{ModeSpin, ModePark},
			func(m Mode) Mode { return NewRWMutex(WithInitialMode(m)).Stats().Mode }},
		{"NewCounter", []Mode{ModeCAS, ModeSharded, ModeCombining},
			func(m Mode) Mode { return NewCounter(WithInitialMode(m)).Stats().Mode }},
		{"NewFetchOp", []Mode{ModeCAS, ModeSharded, ModeCombining},
			func(m Mode) Mode { return NewFetchOp(mul, 1, WithInitialMode(m)).Stats().Mode }},
		{"NewMap", []Mode{ModeLocked, ModeSharded, ModeEpoch},
			func(m Mode) Mode { return NewMap[int, int](WithInitialMode(m)).Stats().Mode }},
		{"WithInitialReaderMode", []Mode{ModeCAS, ModeSharded, ModeEpoch},
			func(m Mode) Mode { return NewRWMutex(WithInitialReaderMode(m)).Stats().Readers.Mode }},
	} {
		for m := ModeSpin; m <= ModeLocked; m++ {
			var got Mode
			var msg any
			func() {
				defer func() { msg = recover() }()
				got = c.build(m)
			}()
			switch {
			case !slices.Contains(c.modes, m):
				if s, _ := msg.(string); !strings.Contains(s, fmt.Sprint(c.modes)) {
					t.Errorf("%s(%v) panicked with %v, want a message listing %v", c.name, m, msg, c.modes)
				}
			case msg != nil:
				t.Errorf("%s(%v) panicked on a mode of its chain: %v", c.name, m, msg)
			case got != m:
				t.Errorf("%s(%v) built a primitive in mode %v", c.name, m, got)
			}
		}
	}
}
