package experiments

import (
	"math"
	"testing"

	"repro/internal/machine"
	"repro/internal/threads"
	"repro/internal/waitanalysis"
	"repro/internal/waiting"
)

// TestTwoPhaseCostMatchesAnalysis corroborates the closed-form expected
// waiting costs of Section 4.4 against the implemented waiting algorithms
// on the simulated machine (the thesis's Section 4.7 methodology): draw
// many exponentially distributed waiting times, run the two-phase
// algorithm through the real thread runtime, account its waiting cost
// (polling cycles consumed, plus B when it blocks), and compare the mean
// against E[C_2phase/α].
func TestTwoPhaseCostMatchesAnalysis(t *testing.T) {
	costs := threads.DefaultCosts()
	b := float64(costs.BlockCost())
	const trials = 400
	for _, tc := range []struct {
		alpha   float64
		lambdaB float64
	}{
		{0.54, 0.5},
		{0.54, 2.0},
		{1.0, 1.0},
		{0.25, 0.25},
	} {
		alg := waiting.TwoPhaseAlpha(tc.alpha, costs)
		meanWait := b / tc.lambdaB // cycles

		m := machine.New(machine.DefaultConfig(2))
		s := threads.NewScheduler(m, costs)
		var measured float64
		flag := false
		var q threads.WaitQueue
		var waitStarts []machine.Time

		s.Spawn(0, 0, "waiter", func(th *threads.Thread) {
			for i := 0; i < trials; i++ {
				start := th.Now()
				blocksBefore := s.Blocks
				waitStarts = append(waitStarts, start)
				alg.Wait(th, func() bool { return flag }, &q)
				flag = false
				if s.Blocks > blocksBefore {
					// Signaling path: polling budget spent plus B.
					measured += float64(alg.Lpoll) + b
				} else {
					// Polling path: cost = waiting time.
					measured += float64(th.Now() - start)
				}
			}
		})
		s.Spawn(1, 0, "signaler", func(th *threads.Thread) {
			for i := 0; i < trials; i++ {
				// Wait for the waiter to begin its next wait.
				for len(waitStarts) <= i {
					th.Advance(8)
				}
				d := machine.Time(meanWait * th.Rand().ExpFloat64())
				if d > machine.Time(40*meanWait) {
					d = machine.Time(40 * meanWait)
				}
				target := waitStarts[i] + d
				if target > th.Now() {
					th.Advance(target - th.Now())
				}
				flag = true
				q.WakeAll(th)
				// Let the waiter observe and reset the flag.
				for flag {
					th.Advance(8)
				}
			}
		})
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		got := measured / trials / b // in units of B
		want := waitanalysis.Exponential.TwoPhaseCost(tc.alpha, tc.lambdaB, 1)
		if math.Abs(got-want) > 0.25*want+0.08 {
			t.Errorf("alpha=%.2f lambdaB=%.2f: measured E[C]=%.3fB, analysis %.3fB",
				tc.alpha, tc.lambdaB, got, want)
		}
	}
}
