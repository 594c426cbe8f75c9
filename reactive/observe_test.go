package reactive

import (
	"math/rand/v2"
	"slices"
	"testing"

	"repro/reactive/modal"
	"repro/reactive/policy"
)

// shippedTables is every chain a primitive in this package runs on.
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
	sub, opt    int
	dir, optDir policy.Direction
	residual    uint64
}

func (p *countingPolicy) Name() string { return "counting" }
func (p *countingPolicy) Suboptimal(d policy.Direction, r uint64) bool {
	p.sub++
	p.dir, p.residual = d, r
	return false
}
func (p *countingPolicy) Optimal(d policy.Direction) { p.opt++; p.optDir = d }
func (p *countingPolicy) Switched()                  {}

// step names one step of a chain, between adjacent modes.
type step struct{ from, to modal.Mode }

// stepsOf lists every step of tab: per link, up then down.
func stepsOf(tab *modal.Table) []step {
	var ss []step
	for m := modal.Mode(0); int(m)+1 < tab.N(); m++ {
		ss = append(ss, step{m, m + 1}, step{m + 1, m})
	}
	return ss
}

// votedStep is the test's own statement of the On column's meaning: the
// step out of from that signal s votes for, if any.
func votedStep(t *modal.Table, from modal.Mode, s modal.Signal) (step, bool) {
	for _, st := range stepsOf(t) {
		if on := t.Step(st.from, st.to).On; st.from == from && s != modal.None && (on == s || on == modal.Busy && s == modal.BusyRead) {
			return st, true
		}
	}
	return step{}, false
}

// streakIs probes a built-in streak — the one of st's direction —
// through Vote, which adds one per call: the first probe holds iff the
// streak was ≥ want, the second iff it was ≤ want.
func streakIs(e *modal.Engine, t *modal.Table, st step, want int32) bool {
	return e.Vote(t, st.from, st.to, want+1) && !e.Vote(t, st.from, st.to, want+3)
}

// TestObserveOneEventPerObservation covers the whole rule over every
// shipped table × mode × signal. An injected policy hears exactly one
// event per observation — the voted step's Suboptimal with that step's
// direction and residual, otherwise one Optimal, down the chain where the
// mode has a down step and up it from mode 0, never one per step. The
// built-in path keeps one streak per direction: it bumps the voted
// step's, zeroes the direction of the mode's other step, and leaves a
// direction the mode has no step in alone.
func TestObserveOneEventPerObservation(t *testing.T) {
	never := [2]int32{1 << 20, 1 << 20}
	dirOf := func(down bool) policy.Direction { // 0 up the chain, 1 down it
		if down {
			return 1
		}
		return 0
	}
	for name, tab := range shippedTables {
		steps := stepsOf(tab)
		for from := modal.Mode(0); int(from) < tab.N(); from++ {
			for _, s := range allSignals {
				voted, any := votedStep(tab, from, s)

				var pol countingPolicy
				var e modal.Engine
				e.SetPolicy(&pol)
				e.Vote(tab, steps[0].from, steps[0].to, 1) // mark the engine dirty
				pol = countingPolicy{}
				e.Observe(tab, from, s, never)
				switch {
				case pol.sub+pol.opt != 1:
					t.Errorf("%s mode %d signal %d: %d Suboptimal + %d Optimal, want one event", name, from, s, pol.sub, pol.opt)
				case any && (pol.sub != 1 || pol.dir != dirOf(voted.to < voted.from) || pol.residual != tab.Step(voted.from, voted.to).Residual):
					t.Errorf("%s mode %d signal %d: policy heard %+v, want one Suboptimal on %d→%d", name, from, s, pol, voted.from, voted.to)
				case !any && (pol.opt != 1 || pol.optDir != dirOf(from > 0)):
					t.Errorf("%s mode %d signal %d: policy heard %+v, want one Optimal(%d)", name, from, s, pol, dirOf(from > 0))
				}

				for d, probe := range steps[:2] { // 0→1 probes the up streak, 1→0 the down one
					var b modal.Engine
					for _, st := range steps[:2] { // both streaks at 2
						b.Vote(tab, st.from, st.to, never[0])
						b.Vote(tab, st.from, st.to, never[0])
					}
					if to, fire := b.Observe(tab, from, s, never); fire || (any && to != voted.to) {
						t.Errorf("%s mode %d signal %d: Observe = (%d, %v) below the limit", name, from, s, to, fire)
					}
					want := int32(2)
					if up := d == 0; up && int(from)+1 < tab.N() || !up && from > 0 {
						want = 0
						if any && (voted.to > voted.from) == up {
							want = 3
						}
					}
					if !streakIs(&b, tab, probe, want) {
						t.Errorf("%s mode %d signal %d: streak of direction %d is not %d", name, from, s, d, want)
					}
				}
			}
		}
	}
}

// TestBuiltinDetectionIsHysteresis: the built-in detector is the
// thesis's hysteresis(x, y) policy run without a lock. On every shipped
// table and a spread of limits, an engine with built-in detection and
// one running policy.NewHysteresis(x, y) hear the same seeded signal
// stream — each observing from its own current mode and committing
// whenever Observe fires — and must fire, and so switch, in lockstep.
func TestBuiltinDetectionIsHysteresis(t *testing.T) {
	for name, tab := range shippedTables {
		for _, lim := range [][2]int32{{3, 8}, {1, 1}, {2, 5}} {
			var builtin, hyst modal.Engine
			hyst.SetPolicy(policy.NewHysteresis(uint64(lim[0]), uint64(lim[1])))
			rng := rand.New(rand.NewPCG(uint64(lim[0]), uint64(lim[1])))
			s := modal.None
			for i := range 200_000 {
				if rng.IntN(8) == 0 { // runs of one signal, so long streaks occur
					s = allSignals[rng.IntN(len(allSignals))]
				}
				toB, fireB := builtin.Observe(tab, builtin.Mode(), s, lim)
				toH, fireH := hyst.Observe(tab, hyst.Mode(), s, lim)
				if fireB != fireH || toB != toH {
					t.Fatalf("%s limits %v, signal %d of mode %d at %d: built-in (%d, %v), hysteresis (%d, %v)",
						name, lim, s, builtin.Mode(), i, toB, fireB, toH, fireH)
				}
				if fireB {
					builtin.TryCommit(tab, builtin.Mode(), toB)
					hyst.TryCommit(tab, hyst.Mode(), toH)
				}
				if builtin.Mode() != hyst.Mode() {
					t.Fatalf("%s limits %v at %d: built-in in mode %d, hysteresis in %d", name, lim, i, builtin.Mode(), hyst.Mode())
				}
			}
			if builtin.Switches() == 0 {
				t.Errorf("%s limits %v: no switch in the stream, so nothing was compared", name, lim)
			}
		}
	}
}

// TestMapContendedWriteIsOnePolicyEvent pins WithPolicy's documented
// rule at the primitive: a contended sharded-mode write votes for
// neither step out of sharded, and that is one Optimal — not one per
// step, which aged a WeightedAverage twice for one operation.
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
// ModeCombining, whose only in-step no observation votes for.
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
