package modal

import (
	"testing"

	"repro/reactive/policy"
)

// tab3 is a 3-mode chain mirroring the reactive Map: 0↔1↔2, contention
// voting up, calm voting down, and the middle mode's up step reserved
// for contended reads.
func tab3() *Table {
	return NewTable(
		[]Step{{Residual: 150, On: Busy}, {Residual: 150, On: BusyRead}},
		[]Step{{Residual: 15, On: Calm}, {Residual: 15, On: Calm}})
}

// lim3 is a limits pair with the same threshold in both directions.
var lim3 = [2]int32{3, 3}

func TestNewTableValidation(t *testing.T) {
	one := []Step{{}}
	for name, bad := range map[string]func(){
		"empty":      func() { NewTable(nil, nil) },
		"no-down":    func() { NewTable(one, nil) },
		"mismatched": func() { NewTable(one, []Step{{}, {}}) },
		"too-many": func() {
			long := make([]Step, streakSlots/2+1)
			NewTable(long, long)
		},
		// One observation votes for at most one step of a mode: mode 1's
		// down step (down[0]) and up step (up[1]) must not share a signal.
		"same-signal": func() {
			NewTable([]Step{{}, {On: Calm}}, []Step{{On: Calm}, {}})
		},
		"busy-takes-busyread": func() {
			NewTable([]Step{{}, {On: Busy}}, []Step{{On: BusyRead}, {}})
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: NewTable should have panicked", name)
				}
			}()
			bad()
		}()
	}
	// The longest chain the streak slots hold, and a mode whose two steps
	// take different signals, are fine.
	long := make([]Step, streakSlots/2)
	NewTable(long, long)
	tab3()
}

// TestTableStep: Step returns each step as declared, by direction, and
// panics on every move that is not one step along the chain.
func TestTableStep(t *testing.T) {
	tab := tab3()
	if tab.N() != 3 {
		t.Fatalf("N = %d, want 3", tab.N())
	}
	for _, tc := range []struct {
		from, to Mode
		want     Step
	}{
		{0, 1, Step{150, Busy}}, {1, 0, Step{15, Calm}},
		{1, 2, Step{150, BusyRead}}, {2, 1, Step{15, Calm}},
	} {
		if got := tab.Step(tc.from, tc.to); got != tc.want {
			t.Errorf("Step(%d,%d) = %+v, want %+v", tc.from, tc.to, got, tc.want)
		}
	}
	for _, tc := range []struct{ from, to Mode }{{0, 2}, {2, 0}, {0, 0}, {2, 3}, {3, 2}, {^Mode(0), 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Step(%d,%d) should panic", tc.from, tc.to)
				}
			}()
			tab.Step(tc.from, tc.to)
		}()
	}
}

func TestEngineZeroValue(t *testing.T) {
	var e Engine
	if e.Mode() != 0 || e.Switches() != 0 || e.Dirty() {
		t.Fatalf("zero engine not at mode 0 without switches: mode=%d switches=%d", e.Mode(), e.Switches())
	}
}

// TestEngineStreakDetection pins the built-in hysteresis semantics:
// limit consecutive votes on one step approve it; an observation the
// step's On does not accept breaks the streak; a committed step resets
// every streak.
func TestEngineStreakDetection(t *testing.T) {
	tab := tab3()
	var e Engine
	const limit = 3
	for i := 0; i < limit-1; i++ {
		if e.Vote(tab, 0, 1, limit) {
			t.Fatalf("switch approved after %d votes, want %d", i+1, limit)
		}
	}
	if _, fire := e.Observe(tab, 0, Calm, lim3); fire { // breaks the streak
		t.Fatal("a confirming observation fired a transition")
	}
	for i := 0; i < limit-1; i++ {
		if e.Vote(tab, 0, 1, limit) {
			t.Fatal("broken streak still counted")
		}
	}
	if to, fire := e.Observe(tab, 0, Busy, lim3); !fire || to != 1 {
		t.Fatalf("Observe completing the streak = (%d, %v), want (1, true)", to, fire)
	}
	if !e.TryCommit(tab, 0, 1) {
		t.Fatal("TryCommit failed from the current mode")
	}
	if e.Mode() != 1 || e.Switches() != 1 {
		t.Fatalf("after commit: mode=%d switches=%d", e.Mode(), e.Switches())
	}
	// The commit reset the 1→2 streak too (not just the taken step's).
	if e.Vote(tab, 1, 2, 2) {
		t.Fatal("streaks not reset by commit")
	}
}

func TestEngineCommitConsensus(t *testing.T) {
	tab := tab3()
	var e Engine
	if e.TryCommit(tab, 1, 2) {
		t.Fatal("commit from a mode the engine is not in must fail")
	}
	if !e.TryCommit(tab, 0, 1) {
		t.Fatal("commit from the current mode must succeed")
	}
	// A second identical commit (stale detection round) must fail: the
	// first one moved the engine out of mode 0.
	if e.TryCommit(tab, 0, 1) {
		t.Fatal("stale commit succeeded — consensus step skipped")
	}
	if e.Mode() != 1 || e.Switches() != 1 {
		t.Fatalf("mode %d after %d switches, want mode 1 after 1", e.Mode(), e.Switches())
	}
}

func TestEngineAbsentEdgePanics(t *testing.T) {
	tab := tab3()
	var e Engine
	for name, call := range map[string]func(){
		"vote":           func() { e.Vote(tab, 0, 2, 3) },
		"observe":        func() { e.Observe(tab, 3, Calm, lim3) },
		"observe-beyond": func() { e.Observe(tab, 4, Calm, lim3) },
		"commit":         func() { e.TryCommit(tab, 0, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a non-step or an out-of-range mode should panic", name)
				}
			}()
			call()
		}()
	}
}

// TestEnginePolicyIntegration: an injected policy receives per-step
// directions and residuals, Optimal elision re-arms on quiescence, and
// a commit clears pressure.
func TestEnginePolicyIntegration(t *testing.T) {
	tab := tab3()
	var e Engine
	e.SetPolicy(policy.NewHysteresis(2, 2))
	if e.Vote(tab, 0, 1, 99) {
		t.Fatal("hysteresis(2) switched on first vote")
	}
	if !e.Dirty() {
		t.Fatal("vote did not mark the engine dirty")
	}
	e.Observe(tab, 0, Calm, lim3) // hysteresis resets → quiescent → elision re-arms
	if e.Dirty() {
		t.Fatal("engine still dirty after the policy re-quiesced")
	}
	if e.Vote(tab, 0, 1, 99) {
		t.Fatal("pressure survived the optimal break")
	}
	if !e.Vote(tab, 0, 1, 99) {
		t.Fatal("hysteresis(2) did not switch after 2 consecutive votes")
	}
	if !e.TryCommit(tab, 0, 1) {
		t.Fatal("commit failed")
	}
	if e.Dirty() {
		t.Fatal("commit did not clear the dirty flag")
	}
}

// TestEngineCompetitiveResiduals: the 3-competitive policy accumulates
// the per-step residual cost defined by the table.
func TestEngineCompetitiveResiduals(t *testing.T) {
	tab := tab3()
	var e Engine
	e.SetPolicy(policy.NewCompetitive(300)) // = 2 × the up-step residual
	if e.Vote(tab, 0, 1, 99) {
		t.Fatal("competitive switched below threshold")
	}
	if !e.Vote(tab, 0, 1, 99) {
		t.Fatal("competitive did not switch once accumulated residual reached threshold")
	}
}

func TestDeciderForwardsEdgeEvents(t *testing.T) {
	tab := tab3()
	var pol policy.Policy = policy.NewHysteresis(2, 1)
	d := NewDecider(tab, &pol)
	if d.Suboptimal(0, 1) {
		t.Fatal("hysteresis(2,1) switched on first up-vote")
	}
	if !d.Suboptimal(0, 1) {
		t.Fatal("hysteresis(2,1) did not switch on second up-vote")
	}
	d.Switched(0, 1)
	// Down-step threshold is 1: a single vote switches.
	if !d.Suboptimal(1, 0) {
		t.Fatal("down-direction vote did not reach the policy with dir=1")
	}
	// The policy is read through the pointer: swapping it takes effect.
	pol = policy.AlwaysSwitch{}
	if !d.Suboptimal(0, 1) {
		t.Fatal("reassigned policy not picked up")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Suboptimal on a non-step should panic")
			}
		}()
		d.Suboptimal(0, 2)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Switched on a non-step should panic")
			}
		}()
		d.Switched(2, 0)
	}()
}

func TestBackoffPausesAndDoubles(t *testing.T) {
	var b Backoff
	b.Max = 8
	for i := 0; i < 20; i++ {
		b.Pause()
	}
	if b.mean != 8 {
		t.Fatalf("mean = %d after many pauses, want capped at 8", b.mean)
	}
	// Two zero-value backoffs must not share a seed (decorrelation).
	var b1, b2 Backoff
	b1.Pause()
	b2.Pause()
	if b1.seed == b2.seed {
		t.Fatal("independent Backoffs share a seed")
	}
}
