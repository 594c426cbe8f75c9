package experiments

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/fetchop"
	"repro/internal/machine"
	"repro/internal/spinlock"
	"repro/internal/stats"
	"repro/internal/tasksys"
)

// catalog is an ordered name→constructor list for one object kind. The
// name lists, MakeLock/MakeFop, every Chapter 3 figure's columns and
// lockstat's -proto validation all derive from the catalogs below, so a
// protocol is spelled once. Figures select by name, never by position.
type catalog[M any] []entry[M]

type entry[M any] struct {
	name string
	mk   M
}

func (c catalog[M]) names() []string {
	names := make([]string, len(c))
	for i, p := range c {
		names[i] = p.name
	}
	return names
}

// pick returns the named entries, in the order asked for. It panics on
// an unknown name: inside the package that is a misspelled figure column.
func (c catalog[M]) pick(names ...string) catalog[M] {
	out := make(catalog[M], len(names))
	for i, name := range names {
		j := slices.IndexFunc(c, func(p entry[M]) bool { return p.name == name })
		if j < 0 {
			panic("experiments: unknown protocol " + name)
		}
		out[i] = c[j]
	}
	return out
}

// named returns the constructor registered under name.
func (c catalog[M]) named(name string) M { return c.pick(name)[0].mk }

// lockMaker builds a lock homed on node home of a fresh machine.
type lockMaker = func(m *machine.Machine, home int) spinlock.Lock

var lockCatalog = catalog[lockMaker]{
	{"test&set", func(m *machine.Machine, home int) spinlock.Lock {
		return spinlock.NewTAS(m.Mem, home, spinlock.DefaultBackoff)
	}},
	{"test&test&set", func(m *machine.Machine, home int) spinlock.Lock {
		return spinlock.NewTTS(m.Mem, home, spinlock.DefaultBackoff)
	}},
	{"mcs-queue", func(m *machine.Machine, home int) spinlock.Lock {
		return spinlock.NewMCS(m.Mem, home)
	}},
	{"mp-queue", func(_ *machine.Machine, home int) spinlock.Lock {
		return spinlock.NewMPQueue(home)
	}},
	{"reactive", func(m *machine.Machine, home int) spinlock.Lock {
		return core.NewReactiveLock(m.Mem, home)
	}},
	{"reactive-nonoptimistic", func(m *machine.Machine, home int) spinlock.Lock {
		l := core.NewReactiveLock(m.Mem, home)
		l.Optimistic = false
		return l
	}},
}

// fopMaker builds a fetch-and-op object with nleaves combining-tree
// leaves on a fresh machine.
type fopMaker = func(m *machine.Machine, nleaves int) fetchop.FetchOp

var fopCatalog = catalog[fopMaker]{
	{"tts-lock", func(m *machine.Machine, _ int) fetchop.FetchOp {
		return fetchop.NewTTSLockFOP(m.Mem, 0)
	}},
	{"queue-lock", func(m *machine.Machine, _ int) fetchop.FetchOp {
		return fetchop.NewQueueLockFOP(m.Mem, 0)
	}},
	{"combining-tree", func(m *machine.Machine, nleaves int) fetchop.FetchOp {
		return fetchop.NewCombTree(m.Mem, nleaves, 0)
	}},
	{"mp-central", func(*machine.Machine, int) fetchop.FetchOp {
		return fetchop.NewMPCentral(0)
	}},
	{"mp-combining-tree", func(m *machine.Machine, nleaves int) fetchop.FetchOp {
		return fetchop.NewMPCombTree(m, nleaves, 0)
	}},
	{"reactive", func(m *machine.Machine, nleaves int) fetchop.FetchOp {
		return core.NewReactiveFetchOp(m.Mem, 0, nleaves)
	}},
}

// LockProtocols lists the spin-lock protocol names MakeLock constructs,
// in catalog order.
func LockProtocols() []string { return lockCatalog.names() }

// FopProtocols lists the fetch-and-op protocol names MakeFop constructs,
// in catalog order.
func FopProtocols() []string { return fopCatalog.names() }

// MakeLock constructs the named spin-lock protocol homed on node home.
// It panics on an unknown name; callers validating user input should
// check LockProtocols first.
func MakeLock(m *machine.Machine, proto string, home int) spinlock.Lock {
	return lockCatalog.named(proto)(m, home)
}

// MakeFop constructs the named fetch-and-op protocol with nleaves
// combining-tree leaves. Like MakeLock, it panics on an unknown name.
func MakeFop(m *machine.Machine, proto string, nleaves int) fetchop.FetchOp {
	return fopCatalog.named(proto)(m, nleaves)
}

// ContentionLoop runs the baseline test loop of Section 3.5.1 on m:
// processors 0..contenders-1 each perform iters × {op; think for the
// drawn number of cycles}. It returns the clock of the last processor to
// finish. Figures 3.2, 3.15, 3.16 and 3.26, the ablations and lockstat
// differ only in op, in the think draw and in the loop latency they
// subtract from the result.
func ContentionLoop(m *machine.Machine, contenders, iters int, op func(*machine.CPU), think func(*machine.CPU) Time) Time {
	var end Time
	for p := 0; p < contenders; p++ {
		m.SpawnCPU(p, 0, "w", func(c *machine.CPU) {
			for i := 0; i < iters; i++ {
				op(c)
				c.Advance(think(c))
			}
			if c.Now() > end {
				end = c.Now()
			}
		})
	}
	if err := m.Run(); err != nil {
		panic(err)
	}
	return end
}

// LockOverhead measures the average per-critical-section overhead of the
// named protocol with the given contenders on a machineProcs-node machine
// (the Figure 3.15 baseline loop) at the default seed.
func LockOverhead(proto string, machineProcs, contenders, iters int) Time {
	return lockOverhead(seedOnly(), lockCatalog.named(proto), machineProcs, contenders, iters, uniformThink, nil)
}

// competitiveWorstCaseRatio plays the Figure 3.14 adversary against the
// Borodin-Linial-Saks nearly-oblivious policy on the two-protocol task
// system: contention flips to disfavor the algorithm right after every
// switch. It returns on-line cost / off-line optimal cost, which the
// 3-competitive bound caps (asymptotically) at 3.
func competitiveWorstCaseRatio(requests int) float64 {
	sys := tasksys.ProtocolSystem(100, 100, 10, 10)
	alg := tasksys.NewNearlyOblivious(sys, 0)
	seq := make([]int, requests)
	for i := range seq {
		// Adversary: request the task that is expensive in the current state.
		task := 1
		if alg.State() == 1 {
			task = 0
		}
		seq[i] = task
		alg.Serve(task)
	}
	opt := sys.OfflineOptimal(seq, 0)
	if opt == 0 {
		return 0
	}
	return alg.Total() / opt
}

// Fig3_14CompetitiveAdversary tabulates competitiveWorstCaseRatio over
// increasing adversarial request counts, showing convergence toward the
// 3-competitive bound.
func Fig3_14CompetitiveAdversary(sz Sizes) *stats.Table {
	t := &stats.Table{Header: []string{"requests", "online/offline"}}
	for _, n := range []int{100, 500, 1000, 5000} {
		t.AddRow(fmt.Sprintf("%d", n), fmt.Sprintf("%.3f", competitiveWorstCaseRatio(n)))
	}
	return t
}
