package experiments

// Native modal experiments: deterministic drives of the reactive/modal
// engine over the chains the native primitives export — FetchOp's
// (CAS ↔ sharded, plus the combining stage no observation votes for),
// RWMutex's reader-registration chain (centralized word ↔ per-P cells ↔
// epoch gate) and Map's (locked table ↔ shard locks ↔ epoch table). Detection is not emulated: each step classifies one
// synthetic request and hands it to Engine.Observe on the primitive's
// own table, the rule the primitive itself runs. Unlike the wall-clock
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

// modalPhase is one segment of the synthetic contention trace: p is the
// probability that a step's request meets contention (for FetchOp: a
// failed CAS in mode CAS, a reconciliation that swept more than one
// active cell in mode sharded, a non-trivial batch in mode combining).
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

// chain is one primitive's modal object as the traces drive it: the
// table the primitive exports, the public mode per engine index, and the
// share of contended requests that are reads — consulted only in a mode
// whose table tells contended reads apart (a step On: BusyRead).
type chain struct {
	tab      *modal.Table
	modes    []reactive.Mode
	readFrac float64
}

var (
	fopChain = chain{tab: reactive.FetchOpTable(),
		modes: []reactive.Mode{reactive.ModeCAS, reactive.ModeSharded, reactive.ModeCombining}}
	rwChain = chain{tab: reactive.RWReaderTable(),
		modes: []reactive.Mode{reactive.ModeCAS, reactive.ModeSharded, reactive.ModeEpoch}}
	// Only contended *reads* vote Map's sharded store up to the epoch
	// protocol (its known-key writes are one CAS, but a write-only map
	// has no reads for it to serve), so the trace models the read-mostly
	// workload the epoch mode exists for. The trace runs the table at the
	// default limits; Map.note also stretches the sharded→locked streak
	// to the live key count, which a keyless trace has no analogue of.
	mapChain = chain{tab: reactive.MapTable(),
		modes:    []reactive.Mode{reactive.ModeLocked, reactive.ModeSharded, reactive.ModeEpoch},
		readFrac: 0.9}
)

// defaultLimits are the package-default streak thresholds, as a
// zero-value primitive uses them: SpinFailLimit on up-edges, EmptyLimit
// on down-edges.
var defaultLimits = [2]int32{reactive.DefaultSpinFailLimit, reactive.DefaultEmptyLimit}

// step serves one synthetic request in the engine's current mode: it met
// contention with probability p (and was then a read with probability
// readFrac, where the mode tells reads apart), Observe turns that class
// into the table's step events, and a fired step is committed. With an
// injected policy the engine routes the same events to it.
func (c chain) step(e *modal.Engine, rng *rand.Rand, p float64) {
	from, s := e.Mode(), modal.Calm
	if rng.Float64() < p {
		s = modal.Busy
		if c.readFrac > 0 && c.tellsReads(from) && rng.Float64() < c.readFrac {
			s = modal.BusyRead
		}
	}
	if to, fire := e.Observe(c.tab, from, s, defaultLimits); fire {
		e.TryCommit(c.tab, from, to)
	}
}

// tellsReads reports whether a step out of mode m is voted for by
// contended reads alone.
func (c chain) tellsReads(m modal.Mode) bool {
	for _, to := range [2]modal.Mode{m - 1, m + 1} { // m-1 wraps out of range at 0
		if int(to) < c.tab.N() && c.tab.Step(m, to).On == modal.BusyRead {
			return true
		}
	}
	return false
}

// drive steps the engine through one phase, adding the steps spent in
// each mode to residency.
func (c chain) drive(e *modal.Engine, rng *rand.Rand, ph modalPhase, residency []int) {
	for i := 0; i < ph.steps; i++ {
		c.step(e, rng, ph.p)
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

// trace drives e over the phased contention trace and tabulates one row
// per phase: where the engine ended, the share of the phase's steps it
// spent in each mode, and the transitions the phase drove.
func (c chain) trace(sz Sizes, e *modal.Engine, extra ...traceColumn) *stats.Table {
	rng := rand.New(rand.NewSource(int64(sz.Seed)))
	t := &stats.Table{Header: slices.Concat([]string{"phase", "contention", "end-mode"}, pctHeaders(c.modes), []string{"switches"})}
	for _, col := range extra {
		t.Header = append(t.Header, col.name)
	}
	for _, ph := range modalPhases(sz) {
		residency := make([]int, len(c.modes))
		before := e.Switches()
		c.drive(e, rng, ph, residency)
		row := slices.Concat([]string{ph.name, fmt.Sprintf("%.2f", ph.p), c.modes[e.Mode()].String()},
			residencyPcts(residency), []string{fmt.Sprintf("%d", e.Switches()-before)})
		for _, col := range extra {
			row = append(row, col.at())
		}
		t.AddRow(row...)
	}
	return t
}

// NativeFopTrace tabulates FetchOp's protocol selection across the
// contention trace, one row per phase: CAS at idle, sharded from the
// ramp through saturation, and a return to CAS when contention subsides.
// The combining column stays at zero — no observation votes for the
// sharded → combining step, so detection cannot reach that mode.
func NativeFopTrace(sz Sizes) *stats.Table { return fopChain.trace(sz, new(modal.Engine)) }

// NativeRWReaderEpochTrace tabulates RWMutex's 3-mode
// reader-registration chain across the shared contention trace: p is
// the probability a centralized registration loses its CAS to another
// reader, and in the cell-based modes that a writer's drain finds
// readers still active. Read saturation that keeps writer drains busy
// pushes the engine through sharded cells into epoch stamps, and
// sustained quiet drains walk it back down the chain, one step at a time,
// so always through sharded.
func NativeRWReaderEpochTrace(sz Sizes) *stats.Table { return rwChain.trace(sz, new(modal.Engine)) }

// NativeMapTrace tabulates the adaptive map's 3-mode chain across the
// shared contention trace: p is the probability an operation found its
// lock (the writer lock, its shard) held, and in the epoch mode that a
// writer's grace period found a reader online. The idle phases hold the
// single locked table, the ramp promotes to shards, read saturation
// pushes through shards into the published-table epoch protocol, and the
// cooldown/quiet phases walk the chain back down, through sharded in
// both directions.
func NativeMapTrace(sz Sizes) *stats.Table { return mapChain.trace(sz, new(modal.Engine)) }

// NativeFopPolicies replays the same contention trace through the modal
// engine once per switching policy, comparing how the built-in
// hysteresis streaks and each injected policy.Policy track FetchOp's
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
	modes := fopChain.modes
	t := &stats.Table{Header: slices.Concat([]string{"policy", "end-mode"}, pctHeaders(modes), []string{"switches"})}
	for _, pc := range pols {
		var e modal.Engine
		e.SetPolicy(pc.mk())
		rng := rand.New(rand.NewSource(int64(sz.Seed)))
		residency := make([]int, len(modes))
		for _, ph := range modalPhases(sz) {
			fopChain.drive(&e, rng, ph, residency)
		}
		t.AddRow(slices.Concat([]string{pc.name, modes[e.Mode()].String()},
			residencyPcts(residency), []string{fmt.Sprintf("%d", e.Switches())})...)
	}
	return t
}
