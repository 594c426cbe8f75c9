package experiments

import (
	"repro/internal/barrier"
	"repro/internal/machine"
	"repro/internal/stats"
)

// barrierEpisodes runs rounds barrier episodes over procs processors and
// returns the average cycles per episode (minus the mean compute skew).
func barrierEpisodes(sz Sizes, mk func(m *machine.Machine) barrier.Barrier, procs, rounds int) Time {
	m := sz.NewMachine(procs, nil)
	b := mk(m)
	var end Time
	for p := 0; p < procs; p++ {
		m.SpawnCPU(p, 0, "w", func(c *machine.CPU) {
			for r := 0; r < rounds; r++ {
				c.Advance(Time(c.Rand().Intn(200) + 10))
				b.Wait(c)
			}
			if c.Now() > end {
				end = c.Now()
			}
		})
	}
	if err := m.Run(); err != nil {
		panic(err)
	}
	avg := end / Time(rounds)
	const skew = 210 // max compute before each episode
	if avg <= skew {
		return 0
	}
	return avg - skew
}

// barrierCatalog is the barrier kind's protocol catalog.
var barrierCatalog = catalog[func(m *machine.Machine) barrier.Barrier]{
	{"central", func(m *machine.Machine) barrier.Barrier { return barrier.NewCentral(m.Mem, 0, m.NumProcs()) }},
	{"combining-tree", func(m *machine.Machine) barrier.Barrier { return barrier.NewTree(m.Mem, m.NumProcs(), 0) }},
	{"reactive", func(m *machine.Machine) barrier.Barrier { return barrier.NewReactive(m.Mem, 0, m.NumProcs()) }},
}

// BarrierBaseline regenerates the reactive-barrier extension experiment
// (thesis Section 6.2 future work): per-episode overhead of the central,
// combining-tree, and reactive barriers versus participant count.
func BarrierBaseline(sz Sizes) *stats.Table {
	rounds := 4 * sz.AppScale
	if rounds < 4 {
		rounds = 4
	}
	var cols []column
	for _, p := range barrierCatalog {
		cols = append(cols, column{p.name, func(procs int) Time {
			return barrierEpisodes(sz, p.mk, procs, rounds)
		}})
	}
	return sweepTable([]int{2, 4, 8, 16, 32, 64}, cols)
}
