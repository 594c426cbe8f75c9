package experiments

import (
	"repro/internal/machine"
	"repro/internal/stats"
)

// fopOverhead runs the fetch-and-op baseline loop of Section 3.5.1 —
// fetch&increment then think U(0,500) — and returns the average overhead
// per operation after subtracting the 250/P test-loop latency.
func fopOverhead(sz Sizes, mk fopMaker, machineProcs, contenders, iters int) Time {
	m := sz.NewMachine(machineProcs, nil)
	f := mk(m, machineProcs)
	end := ContentionLoop(m, contenders, iters, func(c *machine.CPU) { f.FetchAdd(c, 1) }, uniformThink)
	return aboveLoop(end, contenders*iters, Time(250/contenders))
}

// baselineFop is baselineLock for a fetch-and-op object.
func baselineFop(sz Sizes, header string, mk fopMaker) column {
	return column{header, func(p int) Time {
		return fopOverhead(sz, mk, sz.maxProcs(), p, sz.BaselineIters)
	}}
}

// baselineFops returns one baselineFop column per named catalog protocol.
func baselineFops(sz Sizes, protos ...string) []column {
	var cols []column
	for _, p := range fopCatalog.pick(protos...) {
		cols = append(cols, baselineFop(sz, p.name, p.mk))
	}
	return cols
}

// Fig3_15FetchOp regenerates the fetch-and-op half of Figure 3.15:
// overhead per fetch&increment versus contending processors.
func Fig3_15FetchOp(sz Sizes) *stats.Table {
	return sweepTable(sz.BaselineProcs, baselineFops(sz, "tts-lock", "queue-lock", "combining-tree", "reactive"))
}

// Fig3_26MessagePassing regenerates Figure 3.26: shared-memory versus
// message-passing protocols — the MCS and message-passing queue locks,
// then the shared-memory combining tree and the two message-passing
// fetch-and-op kinds.
func Fig3_26MessagePassing(sz Sizes) *stats.Table {
	return sweepTable(sz.BaselineProcs, append(
		baselineLocks(sz, "mcs-queue", "mp-queue"),
		baselineFops(sz, "combining-tree", "mp-central", "mp-combining-tree")...))
}
