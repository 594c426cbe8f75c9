package reactive

import (
	"slices"
	"testing"

	"repro/reactive/modal"
	"repro/reactive/policy"
)

// shippedTables is every transition table a primitive in this package
// runs on.
var shippedTables = map[string]*modal.Table{
	"spin/park":  spinParkTable,
	"rw-readers": readerShardTable,
	"fetchop":    fopTable,
	"map":        mapModeTable,
}

var allSignals = []modal.Signal{modal.None, modal.Calm, modal.Busy, modal.BusyRead}

// countingPolicy records the events an engine forwards. It is no
// Quiescer, so once a Suboptimal has marked the engine dirty every later
// Optimal reaches it instead of being elided.
type countingPolicy struct {
	sub, opt int
	dir      policy.Direction
	residual uint64
}

func (p *countingPolicy) Name() string { return "counting" }
func (p *countingPolicy) Suboptimal(d policy.Direction, r uint64) bool {
	p.sub++
	p.dir, p.residual = d, r
	return false
}
func (p *countingPolicy) Optimal(policy.Direction) { p.opt++ }
func (p *countingPolicy) Switched()                {}

// votedEdge is the test's own statement of the On column's meaning: the
// out-edge of from that signal s votes for, if any.
func votedEdge(t *modal.Table, from modal.Mode, s modal.Signal) (modal.Transition, bool) {
	for _, e := range t.Transitions() {
		if e.From == from && s != modal.None && (e.On == s || e.On == modal.Busy && s == modal.BusyRead) {
			return e, true
		}
	}
	return modal.Transition{}, false
}

// streakIs probes a built-in streak through Vote, which adds one per
// call: the first probe holds iff the streak was ≥ want, the second iff
// it was ≤ want.
func streakIs(e *modal.Engine, t *modal.Table, ed modal.Transition, want int32) bool {
	return e.Vote(t, ed.From, ed.To, want+1) && !e.Vote(t, ed.From, ed.To, want+3)
}

// TestObserveOneEventPerObservation covers the whole rule over every
// shipped table × mode × signal. An injected policy hears exactly one
// event per observation — the voted edge's Suboptimal with that edge's
// direction and residual, otherwise one Optimal, never one per out-edge.
// The built-in path bumps the voted edge's streak, zeroes the mode's
// other out-edges, and leaves every other mode's streaks alone.
func TestObserveOneEventPerObservation(t *testing.T) {
	never := [2]int32{1 << 20, 1 << 20}
	for name, tab := range shippedTables {
		edges := tab.Transitions()
		for from := modal.Mode(0); int(from) < tab.N(); from++ {
			for _, s := range allSignals {
				voted, any := votedEdge(tab, from, s)

				var pol countingPolicy
				var e modal.Engine
				e.SetPolicy(&pol)
				e.Vote(tab, edges[0].From, edges[0].To, 1) // mark the engine dirty
				pol = countingPolicy{}
				e.Observe(tab, from, s, never)
				switch {
				case pol.sub+pol.opt != 1:
					t.Errorf("%s mode %d signal %d: %d Suboptimal + %d Optimal, want one event", name, from, s, pol.sub, pol.opt)
				case any && (pol.sub != 1 || pol.dir != voted.Dir || pol.residual != voted.Residual):
					t.Errorf("%s mode %d signal %d: policy heard %+v, want one Suboptimal(%d, %d)", name, from, s, pol, voted.Dir, voted.Residual)
				case !any && pol.opt != 1:
					t.Errorf("%s mode %d signal %d: policy heard %+v, want one Optimal", name, from, s, pol)
				}

				for _, probe := range edges {
					var b modal.Engine
					for _, ed := range edges { // every streak at 2
						b.Vote(tab, ed.From, ed.To, never[0])
						b.Vote(tab, ed.From, ed.To, never[0])
					}
					if to, fire := b.Observe(tab, from, s, never); fire || (any && to != voted.To) {
						t.Errorf("%s mode %d signal %d: Observe = (%d, %v) below the limit", name, from, s, to, fire)
					}
					want := int32(2)
					if probe.From == from {
						want = 0
						if any && probe.To == voted.To {
							want = 3
						}
					}
					if !streakIs(&b, tab, probe, want) {
						t.Errorf("%s mode %d signal %d: streak of %d→%d is not %d", name, from, s, probe.From, probe.To, want)
					}
				}
			}
		}
	}
}

// TestMapContendedWriteIsOnePolicyEvent pins WithPolicy's documented
// rule at the primitive: a contended sharded-mode write votes for
// neither out-edge, and that is one Optimal — not one per out-edge,
// which aged a WeightedAverage twice for one operation.
func TestMapContendedWriteIsOnePolicyEvent(t *testing.T) {
	var pol countingPolicy
	m := NewMap[int, int](WithInitialMode(ModeSharded), WithPolicy(&pol))
	m.note(mapSharded, false, false) // a down-vote: the engine is dirty from here
	pol = countingPolicy{}
	m.note(mapSharded, true, false)
	if pol.sub != 0 || pol.opt != 1 {
		t.Fatalf("contended sharded write sent %d Suboptimal + %d Optimal, want exactly one Optimal", pol.sub, pol.opt)
	}
}

// reachable walks tab breadth-first from mode 0 under every signal
// sequence: each frontier mode is re-entered on a fresh engine by
// replaying the signals that first reached it (hair-trigger limits, so
// every vote fires and commits), then extended by one more signal.
func reachable(tab *modal.Table) []modal.Mode {
	hair := [2]int32{1, 1}
	replay := func(path []modal.Signal) modal.Mode {
		var e modal.Engine
		for _, s := range path {
			if to, fire := e.Observe(tab, e.Mode(), s, hair); fire {
				e.TryCommit(tab, e.Mode(), to)
			}
		}
		return e.Mode()
	}
	seen := []modal.Mode{0}
	for frontier := [][]modal.Signal{nil}; len(frontier) > 0; frontier = frontier[1:] {
		for _, s := range allSignals {
			path := append(slices.Clone(frontier[0]), s)
			if m := replay(path); !slices.Contains(seen, m) {
				seen = append(seen, m)
				frontier = append(frontier, path)
			}
		}
	}
	slices.Sort(seen)
	return seen
}

// TestDetectionReachability states which modes detection can select as
// an assertion on the tables: every mode of the spin/park, reader
// registration and map chains, and of the fetch-op chain everything but
// ModeCombining, whose only in-edge no observation votes for.
func TestDetectionReachability(t *testing.T) {
	for name, tab := range shippedTables {
		want := []modal.Mode{0, 1, 2}[:tab.N()]
		if tab == fopTable {
			want = []modal.Mode{fCAS, fSharded}
		}
		if got := reachable(tab); !slices.Equal(got, want) {
			t.Errorf("%s: detection reaches modes %v, want %v", name, got, want)
		}
	}
}
