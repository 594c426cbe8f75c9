package experiments

import (
	"fmt"
	"math"

	"repro/internal/apps"
	"repro/internal/machine"
	"repro/internal/memsys"
	"repro/internal/stats"
	"repro/internal/threads"
	"repro/internal/waitanalysis"
	"repro/internal/waiting"
)

// Table4_1BlockingCost regenerates Table 4.1: the breakdown of the cost of
// blocking into unloading, reenabling and reloading, plus the measured
// total B.
func Table4_1BlockingCost() *stats.Table {
	c := threads.DefaultCosts()
	t := &stats.Table{Header: []string{"action", "cycles"}}
	t.AddRow("unloading", fmt.Sprintf("%d", c.Unload))
	t.AddRow("reenabling", fmt.Sprintf("%d", c.Reenable))
	t.AddRow("reloading", fmt.Sprintf("%d", c.Reload))
	t.AddRow("total (B)", fmt.Sprintf("%d", c.BlockCost()))
	return t
}

// factorTable tabulates d's expected competitive factors against the
// adversary's parameter values ps — always-poll, always-signal, 2phase(B)
// and 2phase(αB) at the distribution's optimal α — and closes with each
// column's supremum.
func factorTable(d waitanalysis.Distribution, param string, ps []float64, alpha float64) *stats.Table {
	t := &stats.Table{Header: []string{param, "always-poll", "always-signal", "2phase(1.0B)", fmt.Sprintf("2phase(%.2fB)", alpha)}}
	for _, p := range ps {
		row := []string{fmt.Sprintf("%g", p)}
		for _, a := range []float64{math.Inf(1), 0, 1, alpha} {
			row = append(row, fmt.Sprintf("%.3f", d.Factor(a, p, 1)))
		}
		t.AddRow(row...)
	}
	t.AddRow("worst", "inf", "inf",
		fmt.Sprintf("%.3f", d.WorstFactor(1, 1)),
		fmt.Sprintf("%.3f", d.WorstFactor(alpha, 1)),
	)
	return t
}

// Fig4_4ExpFactors regenerates Figure 4.4: expected competitive factors
// under exponentially distributed waiting times, as a function of λB, for
// always-poll, always-signal, 2phase(B) and 2phase(0.54B).
func Fig4_4ExpFactors() *stats.Table {
	return factorTable(waitanalysis.Exponential, "lambdaB",
		[]float64{0.01, 0.03, 0.1, 0.3, 1, 3, 10, 30, 100}, waitanalysis.AlphaExpOptimal)
}

// Fig4_5UniformFactors regenerates Figure 4.5: expected competitive
// factors under uniformly distributed waiting times versus τ/B for
// 2phase(B) and 2phase(0.62B).
func Fig4_5UniformFactors() *stats.Table {
	return factorTable(waitanalysis.Uniform, "tau/B",
		[]float64{0.1, 0.3, 1, 2, 4, 8, 16, 64}, waitanalysis.Uniform.OptimalAlpha(1))
}

// newSched builds a scheduler on a fresh machine seeded from sz.
func newSched(sz Sizes, procs int) *threads.Scheduler {
	m := sz.NewMachine(procs, nil)
	m.Eng.SetLimit(5_000_000_000)
	return threads.NewScheduler(m, threads.DefaultCosts())
}

// waitAlgs returns the waiting-algorithm suite of Tables 4.3-4.5:
// always-spin, always-block, and two-phase with the analytically optimal
// polling limits.
func waitAlgs() []*waiting.Algorithm {
	costs := threads.DefaultCosts()
	return []*waiting.Algorithm{
		waiting.Spin(),
		waiting.Block(),
		waiting.TwoPhaseAlpha(0.54, costs),
		waiting.TwoPhaseAlpha(0.62, costs),
		waiting.TwoPhaseAlpha(1.0, costs),
	}
}

// The benchmark classes of Table 4.2, one figure each.
const (
	classProducerConsumer = "producer-consumer" // Figure 4.12 / Table 4.3
	classBarrier          = "barrier"           // Figure 4.13 / Table 4.4
	classMutex            = "mutex"             // Figure 4.14 / Table 4.5
)

// waitBench describes one Chapter 4 benchmark: name, class, whether pure
// spinning is live for it (spin-safe), and a runner on the caller's
// scheduler.
type waitBench struct {
	name     string
	class    string
	spinSafe bool
	run      func(s *threads.Scheduler, sz Sizes, alg *waiting.Algorithm) Time
}

// waitBenches is Table 4.2 in table order, and the only place a Chapter 4
// benchmark's constructor and sizes are written.
var waitBenches = []waitBench{
	{"jacobi-jstr", classProducerConsumer, true, func(s *threads.Scheduler, sz Sizes, alg *waiting.Algorithm) Time {
		return (&apps.JacobiJstr{Threads: 8, Iters: 6 * sz.AppScale, Grain: 900}).Run(s, alg)
	}},
	{"future-stream", classProducerConsumer, true, func(s *threads.Scheduler, sz Sizes, alg *waiting.Algorithm) Time {
		return (&apps.FutureStream{Items: 15 * sz.AppScale, Mean: 1500, Work: 900}).Run(s, alg)
	}},
	{"future-tree", classProducerConsumer, false, func(s *threads.Scheduler, sz Sizes, alg *waiting.Algorithm) Time {
		return (&apps.FutureTree{Depth: 5, Grain: 600}).Run(s, alg)
	}},
	{"jacobi-bar", classBarrier, true, func(s *threads.Scheduler, sz Sizes, alg *waiting.Algorithm) Time {
		return apps.NewJacobiBar(8, 5*sz.AppScale).Run(s, alg)
	}},
	{"cgrad", classBarrier, true, func(s *threads.Scheduler, sz Sizes, alg *waiting.Algorithm) Time {
		return apps.NewCGrad(8, 4*sz.AppScale).Run(s, alg)
	}},
	{"fibheap", classMutex, true, func(s *threads.Scheduler, sz Sizes, alg *waiting.Algorithm) Time {
		return (&apps.FibHeap{Threads: 16, Ops: 8 * sz.AppScale, Mean: 800}).Run(s, alg)
	}},
	{"mutex", classMutex, true, func(s *threads.Scheduler, sz Sizes, alg *waiting.Algorithm) Time {
		return (&apps.MutexBench{Threads: 16, Ops: 8 * sz.AppScale, CS: 150, Think: 900}).Run(s, alg)
	}},
	{"countnet", classMutex, true, func(s *threads.Scheduler, sz Sizes, alg *waiting.Algorithm) Time {
		return (&apps.CountNet{Threads: 16, Width: 8, Ops: 5 * sz.AppScale}).Run(s, alg)
	}},
}

// waitBenchNamed returns the waitBenches row called name.
func waitBenchNamed(name string) waitBench {
	for _, b := range waitBenches {
		if b.name == name {
			return b
		}
	}
	panic("experiments: no waiting benchmark named " + name)
}

// elapsed runs b under alg on a fresh 8-processor machine.
func (b waitBench) elapsed(sz Sizes, alg *waiting.Algorithm) Time {
	return b.run(newSched(sz, 8), sz, alg)
}

// best runs b under the full waiting-algorithm suite and returns each
// member's elapsed time — 0 for always-spin where it would starve — and
// the smallest of them.
func (b waitBench) best(sz Sizes) (els []Time, best Time) {
	best = math.MaxUint64
	for _, a := range waitAlgs() {
		var el Time
		if a.Lpoll != waiting.Forever || b.spinSafe {
			el = b.elapsed(sz, a)
			best = min(best, el)
		}
		els = append(els, el)
	}
	return els, best
}

// waitTable runs a benchmark class under the full waiting-algorithm suite,
// normalizing to the best algorithm per row (so 1.00 marks the winner, as
// in Tables 4.3-4.5).
func waitTable(sz Sizes, class string) *stats.Table {
	t := &stats.Table{Header: []string{"benchmark"}}
	for _, a := range waitAlgs() {
		t.Header = append(t.Header, a.Name())
	}
	for _, b := range waitBenches {
		if b.class != class {
			continue
		}
		row := []string{b.name}
		els, best := b.best(sz)
		for _, el := range els {
			if el == 0 {
				row = append(row, "starves")
				continue
			}
			row = append(row, fmt.Sprintf("%.2f", float64(el)/float64(best)))
		}
		t.AddRow(row...)
	}
	return t
}

// Fig4_12ProducerConsumer regenerates Figure 4.12 / Table 4.3.
func Fig4_12ProducerConsumer(sz Sizes) *stats.Table { return waitTable(sz, classProducerConsumer) }

// Fig4_13Barrier regenerates Figure 4.13 / Table 4.4.
func Fig4_13Barrier(sz Sizes) *stats.Table { return waitTable(sz, classBarrier) }

// Fig4_14Mutex regenerates Figure 4.14 / Table 4.5.
func Fig4_14Mutex(sz Sizes) *stats.Table { return waitTable(sz, classMutex) }

// Table4_6HalfB regenerates Table 4.6: all benchmarks under
// Lpoll = 0.5B, reported as the ratio to the best member of the full suite.
func Table4_6HalfB(sz Sizes) *stats.Table {
	half := waiting.TwoPhaseAlpha(0.5, threads.DefaultCosts())
	t := &stats.Table{Header: []string{"benchmark", "2phase(0.5B)/best"}}
	for _, b := range waitBenches {
		el := b.elapsed(sz, half)
		_, best := b.best(sz)
		t.AddRow(b.name, fmt.Sprintf("%.2f", float64(el)/float64(min(el, best))))
	}
	return t
}

// waitProfileRows are the captions of Figures 4.6-4.11 in figure order,
// each over a waitBenches row; Figure 4.9 is Figure 4.8's Jacobi-Bar again
// on an ideal memory system.
var waitProfileRows = []struct {
	caption, bench string
	idealMem       bool
}{
	{"fig4.6 j-structure readers (Jacobi-Jstr)", "jacobi-jstr", false},
	{"fig4.7 futures (FutureTree)", "future-tree", false},
	{"fig4.8 barrier waits (CGrad)", "cgrad", false},
	{"fig4.8 barrier waits (Jacobi-Bar)", "jacobi-bar", false},
	{"fig4.9 barrier waits (Jacobi-Bar, ideal memory)", "jacobi-bar", true},
	{"fig4.10 mutex waits (FibHeap)", "fibheap", false},
	{"fig4.10 mutex waits (Mutex)", "mutex", false},
	{"fig4.11 mutex waits (CountNet)", "countnet", false},
}

// WaitProfiles regenerates the waiting-time distributions of Figures
// 4.6-4.11: each benchmark run under two-phase waiting with profiling, the
// resulting histogram rendered semi-log.
func WaitProfiles(sz Sizes) []*stats.WaitProfile {
	var out []*stats.WaitProfile
	for _, row := range waitProfileRows {
		p := &stats.WaitProfile{Name: row.caption}
		alg := waiting.TwoPhaseAlpha(1.0, threads.DefaultCosts())
		alg.Prof = p
		bench := waitBenchNamed(row.bench)
		if row.idealMem {
			m := sz.NewMachine(8, func(cfg *machine.Config) {
				cfg.Mem = memsys.IdealConfig(8)
			})
			bench.run(threads.NewScheduler(m, threads.DefaultCosts()), sz, alg)
		} else {
			bench.elapsed(sz, alg)
		}
		out = append(out, p)
	}
	return out
}

// WaitProfileSummary tabulates the waiting-time distributions of Figures
// 4.6-4.11 as one summary row per benchmark (count, mean, percentiles).
// The full semi-log histograms remain available from WaitProfiles;
// waitsim -hist prints them.
func WaitProfileSummary(sz Sizes) *stats.Table {
	t := &stats.Table{Header: []string{"profile", "n", "mean", "p50", "p90", "max"}}
	for _, p := range WaitProfiles(sz) {
		t.AddRow(p.Name,
			fmt.Sprintf("%d", p.Sample.N()),
			fmt.Sprintf("%.0f", p.Sample.Mean()),
			fmt.Sprintf("%.0f", p.Sample.Percentile(50)),
			fmt.Sprintf("%.0f", p.Sample.Percentile(90)),
			fmt.Sprintf("%.0f", p.Sample.Max()))
	}
	return t
}

// Fig4_SwitchSpinFactors extends Figure 4.4 to a block-multithreaded
// processor (Section 4.1): polling efficiency β ≈ N contexts = 4, so
// switch-spinning polls at a quarter of spinning's cost. Expected *costs*
// drop with β at any fixed rate, but the worst-case competitive factor is
// β-invariant — a restricted adversary controlling the rate absorbs β by
// reparameterization (μ = λβ) — which the table demonstrates.
func Fig4_SwitchSpinFactors() *stats.Table {
	t := &stats.Table{Header: []string{"alpha", "worst(beta=1)", "worst(beta=4)"}}
	for _, a := range []float64{0.25, waitanalysis.AlphaExpOptimal, 0.62, 1.0, 2.0} {
		t.AddRow(
			fmt.Sprintf("%.2f", a),
			fmt.Sprintf("%.3f", waitanalysis.Exponential.WorstFactor(a, 1)),
			fmt.Sprintf("%.3f", waitanalysis.Exponential.WorstFactor(a, 4)),
		)
	}
	a1 := waitanalysis.Exponential.OptimalAlpha(1)
	a4 := waitanalysis.Exponential.OptimalAlpha(4)
	t.AddRow("opt-alpha",
		fmt.Sprintf("%.3f@%.3f", waitanalysis.Exponential.WorstFactor(a1, 1), a1),
		fmt.Sprintf("%.3f@%.3f", waitanalysis.Exponential.WorstFactor(a4, 4), a4),
	)
	return t
}
