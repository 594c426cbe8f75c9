package experiments

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/spinlock"
	"repro/internal/stats"
)

// Pattern is one contention histogram of the multiple-lock test
// (Figures 3.17-3.19): Groups lists (number of locks, processors per lock);
// the processor counts must sum to 64.
type Pattern struct {
	Name   string
	Groups [][2]int
}

// Patterns returns the twelve contention patterns. Patterns 1-4 mix one
// hot group with single-processor locks; 5-8 replace the single-processor
// locks with two-processor locks (exposing the MCS low-contention race);
// 9-12 are uniform splits.
func Patterns() []Pattern {
	return []Pattern{
		{"1", [][2]int{{1, 32}, {32, 1}}},
		{"2", [][2]int{{2, 16}, {32, 1}}},
		{"3", [][2]int{{4, 8}, {32, 1}}},
		{"4", [][2]int{{8, 4}, {32, 1}}},
		{"5", [][2]int{{1, 32}, {16, 2}}},
		{"6", [][2]int{{2, 16}, {16, 2}}},
		{"7", [][2]int{{4, 8}, {16, 2}}},
		{"8", [][2]int{{8, 4}, {16, 2}}},
		{"9", [][2]int{{64, 1}}},
		{"10", [][2]int{{32, 2}}},
		{"11", [][2]int{{16, 4}}},
		{"12", [][2]int{{2, 32}}},
	}
}

// multiLockElapsed runs one pattern with 64 processors: each processor is
// statically assigned a lock and loops acquire / increment a shared datum /
// release / think, for total acquisitions split evenly. mk receives the
// number of processors that will contend for the lock it creates, so a
// "simulated optimal" maker can statically pick the best protocol.
func multiLockElapsed(sz Sizes, pat Pattern, total int, mk multiLockMaker) Time {
	const procs = 64
	m := sz.NewMachine(procs, nil)
	type assignment struct {
		lock spinlock.Lock
		data machine.Addr
	}
	var assign []assignment // per processor
	for _, g := range pat.Groups {
		for l := 0; l < g[0]; l++ {
			// Each lock and its protected datum live on a distinct home
			// node, as a real program's allocator would arrange; homing
			// all locks on one node would make that node's memory module
			// a global hotspot unrelated to the protocols under test.
			home := len(assign) % procs
			a := assignment{lock: mk(m, g[1], home), data: m.Mem.Alloc(home, 1)}
			for k := 0; k < g[1]; k++ {
				assign = append(assign, a)
			}
		}
	}
	if len(assign) != procs {
		panic(fmt.Sprintf("pattern %s assigns %d processors", pat.Name, len(assign)))
	}
	iters := total / procs
	var end Time
	for p := 0; p < procs; p++ {
		a := assign[p]
		m.SpawnCPU(p, 0, "w", func(c *machine.CPU) {
			for i := 0; i < iters; i++ {
				h := a.lock.Acquire(c)
				v := c.Read(a.data)
				c.Write(a.data, v+1)
				a.lock.Release(c, h)
				c.Advance(Time(c.Rand().Intn(500)))
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

// multiLockMaker builds the lock a group of contenders processors will
// share, homed on node home.
type multiLockMaker = func(m *machine.Machine, contenders, home int) spinlock.Lock

// simulatedOptimal is the static best choice as measured on *this*
// machine: the TTS lock wins only uncontended; from two contenders up the
// queue lock's fair handoff wins on makespan (the TTS lock's unfairness
// lets one processor hog the lock, stretching the slowest processor's
// completion — the effect Section 3.5.2 discusses).
func simulatedOptimal(m *machine.Machine, contenders, home int) spinlock.Lock {
	if contenders < 2 {
		return MakeLock(m, "test&test&set", home)
	}
	return MakeLock(m, "mcs-queue", home)
}

// Fig3_17MultipleLocks regenerates Figures 3.17-3.19: elapsed times for
// the twelve contention patterns under four algorithms, normalized to the
// simulated-optimal static assignment.
func Fig3_17MultipleLocks(sz Sizes) *stats.Table {
	algs := catalog[multiLockMaker]{{"optimal(sim)", simulatedOptimal}}
	for _, p := range lockCatalog.pick("test&set", "mcs-queue", "reactive") {
		algs = append(algs, entry[multiLockMaker]{p.name, func(m *machine.Machine, _, home int) spinlock.Lock {
			return p.mk(m, home)
		}})
	}
	t := newNormalized(algs, "pattern")
	for _, pat := range Patterns() {
		t.row(func(mk multiLockMaker) Time {
			return multiLockElapsed(sz, pat, sz.MultiLockTotal, mk)
		}, pat.Name)
	}
	return t.Table
}
