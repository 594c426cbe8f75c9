package experiments

import (
	"fmt"

	"repro/internal/fetchop"
	"repro/internal/machine"
	"repro/internal/stats"
)

// The design-choice ablations of DESIGN.md §13, each swept over the
// baseline contention levels exactly as Fig3_2DirNNB (the fourth
// ablation) is.

// ablationOptimisticTAS compares the reactive lock's optimistic first
// test&set against consulting the mode variable before every acquire.
func ablationOptimisticTAS(sz Sizes) *stats.Table {
	return sweepTable(sz.BaselineProcs, baselineLocks(sz, "reactive", "reactive-nonoptimistic"))
}

// ablationBroadcastInvalidation compares the directory's sequential
// invalidations against broadcast invalidation under the
// test-and-test-and-set lock.
func ablationBroadcastInvalidation(sz Sizes) *stats.Table {
	tts := lockCatalog.named("test&test&set")
	return sweepTable(sz.BaselineProcs, []column{
		baselineLock(sz, "tts-sequential", tts, nil),
		baselineLock(sz, "tts-broadcast", tts, func(cfg *machine.Config) { cfg.Mem.Broadcast = true }),
	})
}

// ablationCombiningPatience sweeps the combining tree's wait-to-combine
// window, which trades single-operation latency for combining rate.
func ablationCombiningPatience(sz Sizes) *stats.Table {
	var cols []column
	for _, patience := range []Time{40, 160, 640} {
		cols = append(cols, baselineFop(sz, fmt.Sprintf("patience-%d", patience),
			func(m *machine.Machine, nleaves int) fetchop.FetchOp {
				return fetchop.NewCombTree(m.Mem, nleaves, patience)
			}))
	}
	return sweepTable(sz.BaselineProcs, cols)
}
