// Package waiting implements Chapter 4's waiting algorithm. There is one:
// two-phase waiting polls until the cost of polling reaches Lpoll, then
// blocks (the signaling mechanism, B ≈ 500 cycles of Table 4.1, which
// frees the processor for other threads). Always-poll and always-signal are
// its Lpoll = ∞ and Lpoll = 0 corners, exactly as internal/waitanalysis
// computes them, so Algorithm is one concrete type and Spin, Block,
// TwoPhase, TwoPhaseAlpha, SwitchSpin and TwoPhaseSwitch only pick its
// parameters.
//
// The two polling mechanisms differ in what a poll costs. A spinning poll
// holds the processor, so its cost is every cycle since the wait began —
// the condition's own memory reads included. A switch-spinning poll yields
// to the other loaded contexts of a block-multithreaded processor, so only
// the context-switch overhead plus PollGrain counts; the cycles the other
// contexts consume are useful work (cost ≈ t/β for β contexts).
package waiting

import (
	"fmt"
	"math"

	"repro/internal/machine"
	"repro/internal/threads"
)

// Time is simulated cycles.
type Time = machine.Time

// Profiler observes individual waiting times (used to produce the
// waiting-time distribution figures 4.6-4.11).
type Profiler interface {
	Observe(wait Time)
}

// PollGrain is the cost of one poll iteration (a cached read plus loop
// overhead).
const PollGrain Time = 4

// Forever is the Lpoll = ∞ polling budget: the algorithm never blocks.
const Forever Time = math.MaxUint64

// Algorithm is the two-phase waiting algorithm: poll until the polling cost
// reaches Lpoll, then block. Lpoll = αB with α chosen per the waiting-time
// distribution (Section 4.5): α = ln(e−1) ≈ 0.54 for exponential waiting
// times (1.58-competitive), α ≈ 0.62 for uniform (1.62-competitive), α = 1
// for the classic 2-competitive bound.
type Algorithm struct {
	// Lpoll is the polling budget in cycles: 0 always blocks, Forever
	// always polls.
	Lpoll Time
	// Switch polls by switch-spinning instead of spinning. On an idle
	// processor it degenerates to spinning.
	Switch bool
	// Prof optionally records waiting times, one observation per Wait.
	Prof Profiler

	label string // set by TwoPhaseAlpha, which prints α instead of cycles
}

// Spin is the pure polling algorithm: Lpoll = ∞.
func Spin() *Algorithm { return &Algorithm{Lpoll: Forever} }

// Block is the pure signaling algorithm: Lpoll = 0.
func Block() *Algorithm { return &Algorithm{} }

// TwoPhase spins until lpoll cycles have gone by, then blocks.
func TwoPhase(lpoll Time) *Algorithm { return &Algorithm{Lpoll: lpoll} }

// TwoPhaseAlpha is TwoPhase with Lpoll = α·B for the scheduler's blocking
// cost B.
func TwoPhaseAlpha(alpha float64, costs threads.Costs) *Algorithm {
	return &Algorithm{
		Lpoll: Time(alpha * float64(costs.BlockCost())),
		label: fmt.Sprintf("2phase(%.2fB)", alpha),
	}
}

// SwitchSpin is pure polling by switch-spinning.
func SwitchSpin() *Algorithm { return &Algorithm{Lpoll: Forever, Switch: true} }

// TwoPhaseSwitch switch-spins until the switch overhead paid reaches lpoll,
// then blocks.
func TwoPhaseSwitch(lpoll Time) *Algorithm { return &Algorithm{Lpoll: lpoll, Switch: true} }

// Name identifies the algorithm in experiment output.
func (a *Algorithm) Name() string {
	switch {
	case a.label != "":
		return a.label
	case a.Lpoll == 0:
		return "always-block"
	case a.Lpoll == Forever && a.Switch:
		return "switch-spin"
	case a.Lpoll == Forever:
		return "always-spin"
	case a.Switch:
		return fmt.Sprintf("2phase-switch(L=%d)", a.Lpoll)
	}
	return fmt.Sprintf("2phase(L=%d)", a.Lpoll)
}

// Wait returns once cond() is true. It may block the thread on q; whoever
// makes cond true must wake q's threads.
func (a *Algorithm) Wait(t *threads.Thread, cond func() bool, q *threads.WaitQueue) {
	start := t.Now()
	if !a.poll(t, cond, start) {
		for !cond() {
			q.Block(t, cond)
		}
	}
	if a.Prof != nil {
		a.Prof.Observe(t.Now() - start)
	}
}

// poll is the polling phase: it reports whether it saw cond hold before the
// polling cost reached Lpoll. cond is a simulated memory read and costs
// cycles, so a successful poll must not be followed by the blocking phase's
// own check. The cost is compared, never start+Lpoll formed, so Forever
// cannot overflow.
func (a *Algorithm) poll(t *threads.Thread, cond func() bool, start Time) bool {
	for cost := Time(0); cost < a.Lpoll; {
		if cond() {
			return true
		}
		if a.Switch {
			before := t.Now()
			t.Yield() // cost C per switch; other contexts use the processor
			cost += min(t.Now()-before, t.Scheduler().Costs().Switch) + PollGrain
		} else {
			t.Advance(PollGrain)
			cost = t.Now() - start
		}
	}
	return false
}
