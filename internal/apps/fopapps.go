// Package apps implements the parallel application benchmarks of the
// thesis's evaluation sections. The Chapter 3 applications (Gamteb, TSP,
// AQ, MP3D, Cholesky) exercise fetch-and-op and spin-lock protocols on bare
// processors; the Chapter 4 applications (Jacobi, CGrad, FibHeap, CountNet,
// Mutex, future/J-structure benchmarks) exercise waiting algorithms on the
// thread runtime.
//
// The thesis's inputs (2048-particle Gamteb, 11-city TSP, SPLASH MP3D,
// 866x866 Cholesky) are proprietary-or-unavailable workloads; each app here
// is a synthetic equivalent that reproduces the synchronization pattern the
// thesis describes for it — which objects are contended, how contention
// scales with processors, and the computation grain between operations.
// DESIGN.md records the substitutions.
package apps

import (
	"repro/internal/fetchop"
	"repro/internal/machine"
	"repro/internal/spinlock"
)

// Time is simulated cycles.
type Time = machine.Time

// tracker records the latest completion time among a benchmark's workers.
type tracker struct{ end Time }

func (tr *tracker) done(c machine.Context) {
	if c.Now() > tr.end {
		tr.end = c.Now()
	}
}

// run runs the machine to completion and returns the elapsed cycles the
// workers recorded via done.
func (tr *tracker) run(m *machine.Machine) Time {
	if err := m.Run(); err != nil {
		panic(err)
	}
	return tr.end
}

// Gamteb is the photon-transport Monte Carlo benchmark: each particle's
// track updates a set of nine interaction counters with fetch&increment.
// One counter (absorption) is hit far more often than the others, so at
// high processor counts it needs a combining tree while the rest are best
// served by a lock-based protocol — the case where the reactive algorithm
// beats every static choice (Section 3.5.6).
type Gamteb struct {
	Particles int
	Counters  []fetchop.FetchOp // nine interaction counters
}

// Run executes the benchmark on all processors of m and returns elapsed
// cycles.
func (g *Gamteb) Run(m *machine.Machine) Time {
	procs := m.NumProcs()
	per := g.Particles / procs
	if per == 0 {
		per = 1
	}
	tr := &tracker{}
	for p := 0; p < procs; p++ {
		m.SpawnCPU(p, 0, "gamteb", func(c *machine.CPU) {
			for i := 0; i < per; i++ {
				// Track a particle: a few hundred cycles of geometry and
				// cross-section sampling per event.
				events := 1 + c.Rand().Intn(4)
				for e := 0; e < events; e++ {
					c.Advance(Time(150 + c.Rand().Intn(300)))
					// Absorption counter is hot; the other eight are hit
					// with low probability.
					g.Counters[0].FetchAdd(c, 1)
					if k := c.Rand().Intn(12); k < 8 {
						g.Counters[1+k%(len(g.Counters)-1)].FetchAdd(c, 1)
					}
				}
			}
			tr.done(c)
		})
	}
	return tr.run(m)
}

// workQueue is the concurrent queue of TSP and AQ: multiple processes
// access it simultaneously, with fetch&increment operations synchronizing
// access (the algorithm of reference [18] in the thesis). The queue
// contents are node-private data; the fetch-and-op traffic is the measured
// synchronization.
type workQueue struct {
	fop   fetchop.FetchOp
	items []workItem
	// outstanding counts popped-but-unfinished items for termination.
	outstanding int
}

type workItem struct {
	depth int
	grain Time
}

func (q *workQueue) push(c machine.Context, it workItem) {
	q.fop.FetchAdd(c, 1)
	q.items = append(q.items, it)
	q.outstanding++
}

func (q *workQueue) pop(c machine.Context) (workItem, bool) {
	q.fop.FetchAdd(c, 1)
	if len(q.items) == 0 {
		return workItem{}, false
	}
	it := q.items[len(q.items)-1]
	q.items = q.items[:len(q.items)-1]
	return it, true
}

func (q *workQueue) finish() { q.outstanding-- }

func (q *workQueue) drained() bool { return len(q.items) == 0 && q.outstanding == 0 }

// BranchAndBound is the shared-queue search skeleton of TSP and AQ: workers
// pop partial problems, expand them (possibly pushing children), and repeat
// until the queue drains. Grain is the mean computation per node; Depth
// bounds the search tree.
type BranchAndBound struct {
	Fop    fetchop.FetchOp
	Depth  int
	Fanout int
	Grain  Time
	// Nodes counts processed tree nodes (stats).
	Nodes int
}

// Run executes the search on all processors and returns elapsed cycles.
func (b *BranchAndBound) Run(m *machine.Machine) Time {
	q := &workQueue{fop: b.Fop}
	q.items = append(q.items, workItem{depth: 0, grain: b.Grain})
	q.outstanding = 1
	tr := &tracker{}
	for p := 0; p < m.NumProcs(); p++ {
		m.SpawnCPU(p, 0, "bnb", func(c *machine.CPU) {
			idle := 0
			for {
				it, ok := q.pop(c)
				if !ok {
					if q.drained() {
						break
					}
					idle++
					c.Advance(Time(40 + c.Rand().Intn(80)))
					continue
				}
				idle = 0
				b.Nodes++
				c.Advance(it.grain/2 + Time(c.Rand().Uint64n(uint64(it.grain))))
				if it.depth < b.Depth {
					// Prune one subtree at random sometimes, as
					// branch-and-bound does.
					kids := b.Fanout
					if c.Rand().Intn(4) == 0 {
						kids--
					}
					for k := 0; k < kids; k++ {
						q.push(c, workItem{depth: it.depth + 1, grain: it.grain})
					}
				}
				q.finish()
			}
			tr.done(c)
		})
	}
	return tr.run(m)
}

// NewTSP returns the TSP configuration: fine-grained tree nodes, deep
// search — high contention on the queue's fetch&increment at 64+
// processors (Section 3.5.6).
func NewTSP(fop fetchop.FetchOp) *BranchAndBound {
	return &BranchAndBound{Fop: fop, Depth: 9, Fanout: 2, Grain: 260}
}

// NewAQ returns the adaptive-quadrature configuration: the same queue
// skeleton with coarser computation grains, hence lower contention for the
// fetch&increment than TSP.
func NewAQ(fop fetchop.FetchOp) *BranchAndBound {
	return &BranchAndBound{Fop: fop, Depth: 7, Fanout: 2, Grain: 1400}
}

// MP3D is the SPLASH rarefied-fluid-flow benchmark's locking pattern:
// per-cell locks with low contention for particle moves, plus one global
// collision-count lock that all processors hit at the end of each
// iteration (Section 3.5.6).
type MP3D struct {
	CellLocks []spinlock.Lock
	Collision spinlock.Lock
	Particles int
	Iters     int
}

// Run executes the benchmark and returns elapsed cycles.
func (a *MP3D) Run(m *machine.Machine) Time {
	procs := m.NumProcs()
	per := a.Particles / procs
	if per == 0 {
		per = 1
	}
	ncells := len(a.CellLocks)
	arrived := 0
	tr := &tracker{}
	// Simple phase barrier in Go state (engine-serialized); barrier costs
	// are not the object of this benchmark.
	phase := 0
	for p := 0; p < procs; p++ {
		m.SpawnCPU(p, 0, "mp3d", func(c *machine.CPU) {
			for it := 0; it < a.Iters; it++ {
				for i := 0; i < per; i++ {
					// Move a particle: compute, then atomic cell update.
					c.Advance(Time(80 + c.Rand().Intn(160)))
					cell := c.Rand().Intn(ncells)
					h := a.CellLocks[cell].Acquire(c)
					c.Advance(40) // update cell parameters
					a.CellLocks[cell].Release(c, h)
				}
				// End of iteration: update global collision counts —
				// everyone arrives nearly at once, so this lock sees a
				// contention burst.
				h := a.Collision.Acquire(c)
				c.Advance(60)
				a.Collision.Release(c, h)
				// Barrier.
				myPhase := phase
				arrived++
				if arrived == procs {
					arrived = 0
					phase++
				}
				for phase == myPhase && arrived != 0 {
					c.Advance(20)
				}
			}
			tr.done(c)
		})
	}
	return tr.run(m)
}

// Cholesky models the SPLASH sparse Cholesky factorization's locking: a
// task queue plus per-column locks. Column updates near the supernodal
// frontier contend; most locks are quiet.
type Cholesky struct {
	TaskLock      spinlock.Lock
	ColLocks      []spinlock.Lock
	Columns       int
	UpdatesPerCol int
}

// Run executes the factorization skeleton and returns elapsed cycles.
func (a *Cholesky) Run(m *machine.Machine) Time {
	next := 0 // next column to factor (guarded by TaskLock)
	tr := &tracker{}
	for p := 0; p < m.NumProcs(); p++ {
		m.SpawnCPU(p, 0, "chol", func(c *machine.CPU) {
			for {
				h := a.TaskLock.Acquire(c)
				col := next
				next++
				a.TaskLock.Release(c, h)
				if col >= a.Columns {
					break
				}
				// Factor the column: numeric work.
				c.Advance(Time(500 + c.Rand().Intn(1000)))
				// Scatter updates into a few later columns.
				for u := 0; u < a.UpdatesPerCol; u++ {
					target := col + 1 + c.Rand().Intn(8)
					if target >= len(a.ColLocks) {
						continue
					}
					hh := a.ColLocks[target].Acquire(c)
					c.Advance(120)
					a.ColLocks[target].Release(c, hh)
				}
			}
			tr.done(c)
		})
	}
	return tr.run(m)
}
