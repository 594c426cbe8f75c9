package experiments

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/fetchop"
	"repro/internal/spinlock"
	"repro/internal/stats"
)

// Fig3_24FetchOpApps regenerates Figure 3.24: execution times of Gamteb,
// TSP and AQ under the queue-lock-based protocol, the combining tree, and
// the reactive fetch-and-op, across processor counts. Values are
// normalized to the queue-lock protocol at each processor count.
func Fig3_24FetchOpApps(sz Sizes) *stats.Table {
	run := func(app string, procs int, mk fopMaker) Time {
		m := sz.NewMachine(procs, nil)
		switch app {
		case "gamteb":
			counters := make([]fetchop.FetchOp, 9)
			for i := range counters {
				counters[i] = mk(m, procs)
			}
			g := &apps.Gamteb{Particles: 256 * sz.AppScale, Counters: counters}
			return g.Run(m)
		case "tsp":
			b := apps.NewTSP(mk(m, procs))
			b.Depth = 7 + sz.AppScale/2
			return b.Run(m)
		default: // aq
			b := apps.NewAQ(mk(m, procs))
			b.Depth = 6 + sz.AppScale/2
			return b.Run(m)
		}
	}
	t := newNormalized(fopCatalog.pick("queue-lock", "combining-tree", "reactive"), "app", "procs")
	for _, app := range []string{"gamteb", "tsp", "aq"} {
		for _, procs := range []int{16, 32, 64} {
			t.row(func(mk fopMaker) Time { return run(app, procs, mk) }, app, fmt.Sprintf("%d", procs))
		}
	}
	return t.Table
}

// Fig3_25SpinLockApps regenerates Figure 3.25: execution times of MP3D
// (two problem sizes) and Cholesky under the test-and-set lock, the MCS
// queue lock, and the reactive lock, normalized to the test-and-set lock.
func Fig3_25SpinLockApps(sz Sizes) *stats.Table {
	run := func(app string, procs int, mk lockMaker) Time {
		m := sz.NewMachine(procs, nil)
		switch app {
		case "mp3d-small", "mp3d-large":
			particles := 192 * sz.AppScale
			if app == "mp3d-large" {
				particles *= 3
			}
			cells := make([]spinlock.Lock, 32)
			for i := range cells {
				cells[i] = mk(m, i%procs)
			}
			a := &apps.MP3D{
				CellLocks: cells,
				Collision: mk(m, 0),
				Particles: particles,
				Iters:     5,
			}
			return a.Run(m)
		default: // cholesky
			cols := make([]spinlock.Lock, 64)
			for i := range cols {
				cols[i] = mk(m, i%procs)
			}
			a := &apps.Cholesky{
				TaskLock:      mk(m, 0),
				ColLocks:      cols,
				Columns:       48 * sz.AppScale,
				UpdatesPerCol: 3,
			}
			return a.Run(m)
		}
	}
	t := newNormalized(lockCatalog.pick("test&set", "mcs-queue", "reactive"), "app", "procs")
	for _, cse := range []struct {
		app   string
		procs []int
	}{
		{"mp3d-small", []int{16, 64}},
		{"mp3d-large", []int{16, 64}},
		{"cholesky", []int{4, 16}},
	} {
		for _, procs := range cse.procs {
			t.row(func(mk lockMaker) Time { return run(cse.app, procs, mk) }, cse.app, fmt.Sprintf("%d", procs))
		}
	}
	return t.Table
}
