// Package experiments regenerates every table and figure of the thesis's
// evaluation sections on the simulated machine. Each Fig/Table function
// returns a stats.Table whose rows correspond to the paper's data series;
// EXPERIMENTS.md records the paper-vs-measured comparison.
//
// Absolute cycle counts differ from Alewife's (different constants), but
// the reproduced content is the *shape*: which protocol wins at which
// contention level, where the crossovers fall, and the relative factors.
package experiments

import (
	"fmt"
	"slices"

	"repro/internal/machine"
	"repro/internal/stats"
)

// Time is simulated cycles.
type Time = machine.Time

// DefaultSeed is the base seed of the experiment matrix. It matches
// machine.DefaultConfig's seed, and LockOverhead measures at it directly;
// registry runs derive a distinct per-experiment seed from it via
// ExperimentSeed, so their absolute values differ from a fixed-seed run
// (deterministically — same table on every run at the same base seed).
const DefaultSeed uint64 = 0x5eed

// Sizes scales the experiments: Quick for tests and CI, Full for
// paper-scale runs. Seed is the machine seed every simulated machine in
// the experiment is built with; the Runner derives a distinct
// deterministic Seed per experiment so parallel and serial execution of
// the matrix produce byte-identical tables.
type Sizes struct {
	BaselineIters   int    // critical sections per processor per data point
	BaselineProcs   []int  // contention levels swept
	MultiLockTotal  int    // total acquisitions in the multiple-lock test
	TimeVaryPeriods int    // periods in the time-varying test
	AppScale        int    // divisor-free scale knob for applications
	Seed            uint64 // machine seed (0 means DefaultSeed)
}

// Quick returns test-scale sizes.
func Quick() Sizes {
	return Sizes{
		BaselineIters:   60,
		BaselineProcs:   []int{1, 2, 4, 8, 16, 32},
		MultiLockTotal:  2048,
		TimeVaryPeriods: 4,
		AppScale:        1,
		Seed:            DefaultSeed,
	}
}

// Tiny returns smoke-scale sizes: every knob shrunk so the whole matrix
// runs in seconds. Used by the registry tests and the CI bench job;
// shapes at this scale are noisy and must not be read as results.
func Tiny() Sizes {
	return Sizes{
		BaselineIters:   8,
		BaselineProcs:   []int{1, 4},
		MultiLockTotal:  256,
		TimeVaryPeriods: 1,
		AppScale:        1,
		Seed:            DefaultSeed,
	}
}

// Full returns paper-scale sizes (64-processor sweeps).
func Full() Sizes {
	return Sizes{
		BaselineIters:   150,
		BaselineProcs:   []int{1, 2, 4, 8, 16, 32, 64},
		MultiLockTotal:  16384,
		TimeVaryPeriods: 10,
		AppScale:        4,
		Seed:            DefaultSeed,
	}
}

// seedOnly returns a Sizes carrying just the default machine seed, for
// single measurements whose iteration counts are explicit.
func seedOnly() Sizes { return Sizes{Seed: DefaultSeed} }

// NewMachine builds one experiment machine: the default config at procs
// nodes, reseeded from sz.Seed, with mod applied last. Every machine an
// experiment creates goes through here so a spec's seed reaches all of
// its runs.
func (sz Sizes) NewMachine(procs int, mod func(*machine.Config)) *machine.Machine {
	cfg := machine.DefaultConfig(procs)
	if sz.Seed != 0 {
		cfg.Seed = sz.Seed
	}
	if mod != nil {
		mod(&cfg)
	}
	return machine.New(cfg)
}

// maxProcs is the widest contention level swept: the machine size of the
// baseline figures.
func (sz Sizes) maxProcs() int { return sz.BaselineProcs[len(sz.BaselineProcs)-1] }

// uniformThink draws the baseline think time U(0,500) of Section 3.5.1.
func uniformThink(c *machine.CPU) Time { return Time(c.Rand().Intn(500)) }

// aboveLoop converts a run's makespan into the average overhead per
// operation: makespan/ops less the test-loop latency, floored at zero.
func aboveLoop(end Time, ops int, loop Time) Time {
	avg := end / Time(ops)
	if avg <= loop {
		return 0
	}
	return avg - loop
}

// lockOverhead runs the baseline test loop of Section 3.5.1 — acquire,
// 100-cycle critical section, release, think — with contenders
// processors on a machineProcs-node machine, and returns the average
// overhead per critical section after subtracting the test-loop latency.
func lockOverhead(sz Sizes, mk lockMaker, machineProcs, contenders, iters int, think func(*machine.CPU) Time, cfgMod func(*machine.Config)) Time {
	m := sz.NewMachine(machineProcs, cfgMod)
	l := mk(m, 0)
	end := ContentionLoop(m, contenders, iters, func(c *machine.CPU) {
		h := l.Acquire(c)
		c.Advance(100)
		l.Release(c, h)
	}, think)
	// Test-loop latency per critical section (Section 3.5.1): with P
	// contenders the 250-cycle mean think time overlaps P-ways.
	var loop Time
	switch contenders {
	case 1:
		loop = 350
	case 2:
		loop = 175
	default:
		loop = 100
	}
	return aboveLoop(end, contenders*iters, loop)
}

// column is one protocol series of a sweep table: its header and the
// measurement at a contention level.
type column struct {
	name string
	cell func(procs int) Time
}

// sweepTable builds a "row per contention level, column per protocol"
// table of simulated cycles.
func sweepTable(levels []int, cols []column) *stats.Table {
	t := &stats.Table{Header: []string{"procs"}}
	for _, col := range cols {
		t.Header = append(t.Header, col.name)
	}
	for _, p := range levels {
		row := []string{fmt.Sprintf("%d", p)}
		for _, col := range cols {
			row = append(row, fmt.Sprintf("%d", col.cell(p)))
		}
		t.AddRow(row...)
	}
	return t
}

// baselineLock is the column of a Figure 3.15-style sweep for one lock:
// the baseline loop on a machine as wide as the widest level, cfgMod
// applied to the machine.
func baselineLock(sz Sizes, header string, mk lockMaker, cfgMod func(*machine.Config)) column {
	return column{header, func(p int) Time {
		return lockOverhead(sz, mk, sz.maxProcs(), p, sz.BaselineIters, uniformThink, cfgMod)
	}}
}

// baselineLocks returns one baselineLock column per named catalog
// protocol.
func baselineLocks(sz Sizes, protos ...string) []column {
	var cols []column
	for _, p := range lockCatalog.pick(protos...) {
		cols = append(cols, baselineLock(sz, p.name, p.mk, nil))
	}
	return cols
}

// normalized builds a "normalize each row to its first column" table of
// elapsed times: one column per algorithm in algs, after the label
// columns.
type normalized[M any] struct {
	algs catalog[M]
	*stats.Table
}

func newNormalized[M any](algs catalog[M], labels ...string) normalized[M] {
	return normalized[M]{algs, &stats.Table{Header: slices.Concat(labels, algs.names())}}
}

// row measures one case under every algorithm and appends its row: the
// label cells, then each elapsed time over the first algorithm's.
func (n normalized[M]) row(elapsed func(mk M) Time, labels ...string) {
	cells := slices.Clone(labels)
	var base Time
	for i, alg := range n.algs {
		el := elapsed(alg.mk)
		if i == 0 {
			base = el
			cells = append(cells, "1.00")
			continue
		}
		cells = append(cells, fmt.Sprintf("%.2f", float64(el)/float64(base)))
	}
	n.AddRow(cells...)
}

// spinLockFigure names the four protocols Figures 3.15 and 3.16 plot.
var spinLockFigure = []string{"test&set", "test&test&set", "mcs-queue", "reactive"}

// Fig3_15SpinLocks regenerates the spin-lock half of Figure 3.15 (and
// Figures 1.1/3.2): overhead per critical section versus contending
// processors for each protocol.
func Fig3_15SpinLocks(sz Sizes) *stats.Table {
	return sweepTable(sz.BaselineProcs, baselineLocks(sz, spinLockFigure...))
}

// Fig3_16Prototype regenerates the 16-processor "Alewife prototype" run:
// the same baseline on a 16-node machine with a fixed 250-cycle think time.
func Fig3_16Prototype(sz Sizes) *stats.Table {
	fixedThink := func(*machine.CPU) Time { return 250 }
	var cols []column
	for _, p := range lockCatalog.pick(spinLockFigure...) {
		cols = append(cols, column{p.name, func(procs int) Time {
			return lockOverhead(sz, p.mk, 16, procs, sz.BaselineIters*2, fixedThink, nil)
		}})
	}
	return sweepTable([]int{1, 2, 4, 8, 16}, cols)
}

// Fig3_2DirNNB regenerates the DirNNB ablation of Figure 3.2: the
// test-and-test-and-set lock on the LimitLESS directory versus a full-map
// directory that handles all coherence in hardware.
func Fig3_2DirNNB(sz Sizes) *stats.Table {
	tts := lockCatalog.named("test&test&set")
	return sweepTable(sz.BaselineProcs, []column{
		baselineLock(sz, "tts-limitless", tts, nil),
		baselineLock(sz, "tts-dirnnb", tts, func(cfg *machine.Config) { cfg.Mem.HWPointers = -1 }),
	})
}
