package experiments

// Native fetch-and-op modal experiments: deterministic drives of the
// reactive/modal engine over the native FetchOp's 3-mode transition
// shape (CAS ↔ sharded ↔ combining — the native analogue of the
// simulator's TTS ↔ queue ↔ combining tree). Unlike the wall-clock
// BenchmarkNative* measurements, these exercise the pure
// protocol-selection state machine on a seeded synthetic contention
// trace, so their tables are bit-deterministic and participate in the
// registry's serial==parallel contract like every simulator experiment.

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/stats"
	"repro/reactive"
	"repro/reactive/modal"
	"repro/reactive/policy"
)

// Native fetch-op engine mode indices (reactive.FetchOpTable's contract:
// index i is the public mode reactive.ModeCAS + i).
const (
	nmCAS       modal.Mode = 0
	nmSharded   modal.Mode = 1
	nmCombining modal.Mode = 2
)

// modalPhase is one segment of the synthetic contention trace: p is the
// probability that a step observes contention (a failed CAS in mode CAS,
// a wide reconciling fan-in in mode sharded, a non-trivial batch in mode
// combining).
type modalPhase struct {
	name  string
	p     float64
	steps int
}

func modalPhases(sz Sizes) []modalPhase {
	steps := 120 * sz.BaselineIters
	return []modalPhase{
		{"idle", 0.02, steps},
		{"ramp", 0.55, steps},
		{"saturated", 0.97, steps},
		{"cooldown", 0.55, steps},
		{"quiet", 0.02, steps},
	}
}

// stepFunc feeds the engine one synthetic detection event drawn from
// contention level p: one primitive's detection wiring, emulated.
type stepFunc func(e *modal.Engine, t *modal.Table, rng *rand.Rand, p float64)

// drive steps the engine through one phase, adding the steps spent in
// each mode to residency.
func drive(e *modal.Engine, tab *modal.Table, step stepFunc, rng *rand.Rand, ph modalPhase, residency []int) {
	for i := 0; i < ph.steps; i++ {
		step(e, tab, rng, ph.p)
		residency[e.Mode()]++
	}
}

// residencyPcts renders per-mode step counts as percentages of their sum.
func residencyPcts(residency []int) []string {
	total := 0
	for _, n := range residency {
		total += n
	}
	cells := make([]string, len(residency))
	for i, n := range residency {
		cells[i] = "0.0"
		if total > 0 {
			cells[i] = fmt.Sprintf("%.1f", 100*float64(n)/float64(total))
		}
	}
	return cells
}

// pctHeaders names the residency columns of modes: "%cas", "%sharded", ...
func pctHeaders(modes []reactive.Mode) []string {
	hs := make([]string, len(modes))
	for i, m := range modes {
		hs[i] = "%" + m.String()
	}
	return hs
}

// traceColumn is a caller's extra column of a trace table, sampled at
// the end of each phase.
type traceColumn struct {
	name string
	at   func() string
}

// modalTrace drives e over the phased contention trace and tabulates one
// row per phase: where the engine ended, the share of the phase's steps
// it spent in each mode, and the transitions the phase drove. modes
// lists the chain's public mode per engine index.
func modalTrace(sz Sizes, e *modal.Engine, tab *modal.Table, modes []reactive.Mode, step stepFunc, extra ...traceColumn) *stats.Table {
	rng := rand.New(rand.NewSource(int64(sz.Seed)))
	t := &stats.Table{Header: slices.Concat([]string{"phase", "contention", "end-mode"}, pctHeaders(modes), []string{"switches"})}
	for _, col := range extra {
		t.Header = append(t.Header, col.name)
	}
	for _, ph := range modalPhases(sz) {
		residency := make([]int, len(modes))
		before := e.Switches()
		drive(e, tab, step, rng, ph, residency)
		row := slices.Concat([]string{ph.name, fmt.Sprintf("%.2f", ph.p), modes[e.Mode()].String()},
			residencyPcts(residency), []string{fmt.Sprintf("%d", e.Switches()-before)})
		for _, col := range extra {
			row = append(row, col.at())
		}
		t.AddRow(row...)
	}
	return t
}

// fopModes is the native fetch-op chain by engine index.
var fopModes = []reactive.Mode{reactive.ModeCAS, reactive.ModeSharded, reactive.ModeCombining}

// stepModalEngine feeds the engine one synthetic detection event drawn
// from contention level p, emulating FetchOp's per-mode detection
// wiring: contended CAS applies vote up, single-writer reconciliations
// vote down, wide-fan-in reconciliations vote further up, and idle
// combining sweeps vote back down. The streak limits are the package
// defaults (SpinFailLimit for up-edges, EmptyLimit for down-edges);
// with an injected policy the engine routes the same events to it.
func stepModalEngine(e *modal.Engine, t *modal.Table, rng *rand.Rand, p float64) {
	const (
		failLimit  = reactive.DefaultSpinFailLimit
		emptyLimit = reactive.DefaultEmptyLimit
	)
	u := rng.Float64()
	switch e.Mode() {
	case nmCAS:
		if u < p {
			if e.Vote(t, nmCAS, nmSharded, failLimit) {
				e.TryCommit(t, nmCAS, nmSharded)
			}
		} else {
			e.Good(t, nmCAS, nmSharded)
		}
	case nmSharded:
		if u >= p {
			if e.Vote(t, nmSharded, nmCAS, emptyLimit) {
				e.TryCommit(t, nmSharded, nmCAS)
			}
		} else {
			e.Good(t, nmSharded, nmCAS)
			if u < p*p { // heavy tail: reconciliation swept a wide fan-in
				if e.Vote(t, nmSharded, nmCombining, failLimit) {
					e.TryCommit(t, nmSharded, nmCombining)
				}
			} else {
				e.Good(t, nmSharded, nmCombining)
			}
		}
	default:
		if u < p {
			e.Good(t, nmCombining, nmSharded)
		} else if e.Vote(t, nmCombining, nmSharded, emptyLimit) {
			e.TryCommit(t, nmCombining, nmSharded)
		}
	}
}

// NativeFopTrace tabulates the modal engine's protocol selection across
// the contention trace, one row per phase: where the engine spent its
// time and how many transitions each phase drove. The end-of-trace shape
// mirrors the simulator's reactive fetch-and-op experiments: CAS at idle,
// combining at saturation, and a return to CAS when contention subsides.
func NativeFopTrace(sz Sizes) *stats.Table {
	return modalTrace(sz, new(modal.Engine), reactive.FetchOpTable(), fopModes, stepModalEngine)
}

// NativeFopPolicies replays the same contention trace through the modal
// engine once per switching policy, comparing how the built-in
// hysteresis streaks and each injected policy.Policy track the N=3
// protocol chain — the native counterpart of the simulator's
// Figure 3.22/3.23 policy comparisons.
func NativeFopPolicies(sz Sizes) *stats.Table {
	pols := []struct {
		name string
		mk   func() policy.Policy
	}{
		{"builtin-streaks", func() policy.Policy { return nil }},
		{"always", func() policy.Policy { return policy.AlwaysSwitch{} }},
		{"3-competitive", func() policy.Policy {
			return policy.NewCompetitive(3 * reactive.ResidualCheapHigh)
		}},
		{"hysteresis(3,8)", func() policy.Policy { return policy.NewHysteresis(3, 8) }},
		{"weighted-average", func() policy.Policy { return policy.NewWeightedAverage(64, 192) }},
		{"congestion", func() policy.Policy { return policy.NewCongestion() }},
	}
	tab := reactive.FetchOpTable()
	t := &stats.Table{Header: slices.Concat([]string{"policy", "end-mode"}, pctHeaders(fopModes), []string{"switches"})}
	for _, pc := range pols {
		var e modal.Engine
		e.SetPolicy(pc.mk())
		rng := rand.New(rand.NewSource(int64(sz.Seed)))
		residency := make([]int, len(fopModes))
		for _, ph := range modalPhases(sz) {
			drive(&e, tab, stepModalEngine, rng, ph, residency)
		}
		t.AddRow(slices.Concat([]string{pc.name, fopModes[e.Mode()].String()},
			residencyPcts(residency), []string{fmt.Sprintf("%d", e.Switches())})...)
	}
	return t
}
