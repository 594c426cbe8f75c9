package modal

import (
	"testing"

	"repro/reactive/policy"
)

// tab3 is a 3-mode chain table mirroring the reactive Map: 0↔1↔2, no
// direct 0↔2 edge, contention voting up, calm voting down, and the
// middle mode's up-edge reserved for contended reads.
func tab3() *Table {
	return NewTable(3, []Transition{
		{From: 0, To: 1, Dir: 0, Residual: 150, On: Busy},
		{From: 1, To: 0, Dir: 1, Residual: 15, On: Calm},
		{From: 1, To: 2, Dir: 0, Residual: 150, On: BusyRead},
		{From: 2, To: 1, Dir: 1, Residual: 15, On: Calm},
	})
}

// lim3 is a limits pair with the same threshold in both directions.
var lim3 = [2]int32{3, 3}

func TestNewTableValidation(t *testing.T) {
	for name, bad := range map[string]func(){
		"n<2":       func() { NewTable(1, []Transition{{From: 0, To: 0}}) },
		"empty":     func() { NewTable(2, nil) },
		"self-loop": func() { NewTable(2, []Transition{{From: 1, To: 1}}) },
		"range":     func() { NewTable(2, []Transition{{From: 0, To: 2}}) },
		"duplicate": func() { NewTable(2, []Transition{{From: 0, To: 1}, {From: 0, To: 1}}) },
		"direction": func() { NewTable(2, []Transition{{From: 0, To: 1, Dir: 2}}) },
		// One observation votes for at most one transition of a mode.
		"same-signal": func() {
			NewTable(3, []Transition{{From: 0, To: 1, On: Calm}, {From: 0, To: 2, On: Calm}})
		},
		"busy-takes-busyread": func() {
			NewTable(3, []Transition{{From: 0, To: 1, On: BusyRead}, {From: 0, To: 2, On: Busy}})
		},
		"too-many": func() {
			ts := make([]Transition, 0, MaxEdges+1)
			for i := 0; i <= MaxEdges; i++ {
				ts = append(ts, Transition{From: Mode(i), To: Mode(i + 1)})
			}
			NewTable(MaxEdges+2, ts)
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
}

func TestTableHas(t *testing.T) {
	tab := tab3()
	if tab.N() != 3 {
		t.Fatalf("N = %d, want 3", tab.N())
	}
	for _, tc := range []struct {
		from, to Mode
		want     bool
	}{
		{0, 1, true}, {1, 0, true}, {1, 2, true}, {2, 1, true},
		{0, 2, false}, {2, 0, false}, {0, 0, false}, {3, 0, false}, {0, 3, false},
	} {
		if got := tab.Has(tc.from, tc.to); got != tc.want {
			t.Errorf("Has(%d,%d) = %v, want %v", tc.from, tc.to, got, tc.want)
		}
	}
	if got := len(tab.Transitions()); got != 4 {
		t.Errorf("Transitions() has %d edges, want 4", got)
	}
}

func TestEngineZeroValue(t *testing.T) {
	var e Engine
	if e.Mode() != 0 || e.Epoch() != 0 || e.Switches() != 0 || e.Dirty() {
		t.Fatalf("zero engine not at (mode 0, epoch 0): mode=%d epoch=%d", e.Mode(), e.Epoch())
	}
}

// TestEngineStreakDetection pins the built-in hysteresis semantics:
// limit consecutive votes on one edge approve the transition; an
// observation the edge's On does not accept breaks the streak; a
// committed transition resets every streak.
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
	if e.Mode() != 1 || e.Epoch() != 1 || e.Switches() != 1 {
		t.Fatalf("after commit: mode=%d epoch=%d switches=%d", e.Mode(), e.Epoch(), e.Switches())
	}
	// The commit reset the 1→2 streak too (not just the taken edge's).
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
	// first one consumed the epoch.
	if e.TryCommit(tab, 0, 1) {
		t.Fatal("stale commit succeeded — consensus step skipped")
	}
	epoch, mode := Unpack(e.Word())
	if epoch != 1 || mode != 1 {
		t.Fatalf("word = (epoch %d, mode %d), want (1, 1)", epoch, mode)
	}
}

func TestEngineAbsentEdgePanics(t *testing.T) {
	tab := tab3()
	var e Engine
	for name, call := range map[string]func(){
		"vote":    func() { e.Vote(tab, 0, 2, 3) },
		"observe": func() { e.Observe(tab, 3, Calm, lim3) },
		"commit":  func() { e.TryCommit(tab, 0, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on an absent edge or mode should panic", name)
				}
			}()
			call()
		}()
	}
}

// TestEnginePolicyIntegration: an injected policy receives per-edge
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
// the per-edge residual cost defined by the table.
func TestEngineCompetitiveResiduals(t *testing.T) {
	tab := tab3()
	var e Engine
	e.SetPolicy(policy.NewCompetitive(300)) // = 2 × the up-edge residual
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
	// Down-edge threshold is 1: a single vote switches.
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
				t.Error("Suboptimal on an absent edge should panic")
			}
		}()
		d.Suboptimal(0, 2)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Switched on an absent edge should panic")
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
