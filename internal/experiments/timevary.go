package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/spinlock"
	"repro/internal/stats"
	"repro/reactive/policy"
)

// timeVaryElapsed runs the time-varying contention test of Section 3.5.4
// (Figure 3.20) on a 16-processor machine: each period consists of a
// low-contention phase (one processor; 10-cycle critical sections, 20-cycle
// think) and a high-contention phase (16 processors; 100-cycle critical
// sections, 250-cycle think). periodLen is the number of lock acquisitions
// per period; pctContention the percentage acquired under high contention.
func timeVaryElapsed(sz Sizes, mk lockMaker, periodLen, pctContention, periods int) Time {
	const procs = 16
	m := sz.NewMachine(procs, nil)
	l := mk(m, 0)
	high := periodLen * pctContention / 100
	low := periodLen - high
	perHigh := high / procs
	if perHigh == 0 && high > 0 {
		perHigh = 1
	}

	// Phase coordination via engine-serialized Go state.
	phase := 0 // increments after each half-period
	arrived := 0
	var end Time
	barrier := func(c *machine.CPU, parties int) {
		my := phase
		arrived++
		if arrived == parties {
			arrived = 0
			phase++
			return
		}
		for phase == my {
			c.Advance(50)
		}
	}
	for p := 0; p < procs; p++ {
		p := p
		m.SpawnCPU(p, 0, "w", func(c *machine.CPU) {
			for per := 0; per < periods; per++ {
				// Low-contention phase: processor 0 only.
				if p == 0 {
					for i := 0; i < low; i++ {
						h := l.Acquire(c)
						c.Advance(10)
						l.Release(c, h)
						c.Advance(20)
					}
				}
				barrier(c, procs)
				// High-contention phase: everyone.
				for i := 0; i < perHigh; i++ {
					h := l.Acquire(c)
					c.Advance(100)
					l.Release(c, h)
					c.Advance(250)
				}
				barrier(c, procs)
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

// timeVaryTable runs the time-varying test for the given algorithms across
// period lengths and contention mixes, normalizing to the first (the MCS
// queue lock in every figure).
func timeVaryTable(sz Sizes, algs catalog[lockMaker]) *stats.Table {
	t := newNormalized(algs, "%cont", "period")
	for _, pct := range []int{10, 50, 90} {
		for _, pl := range []int{256, 1024, 4096} {
			t.row(func(mk lockMaker) Time {
				return timeVaryElapsed(sz, mk, pl, pct, sz.TimeVaryPeriods)
			}, fmt.Sprintf("%d", pct), fmt.Sprintf("%d", pl))
		}
	}
	return t.Table
}

// reactiveWith is a policy variant of the catalog's reactive lock: each
// lock built gets a fresh policy from mkPolicy.
func reactiveWith(name string, mkPolicy func() policy.Policy) entry[lockMaker] {
	reactive := lockCatalog.named("reactive")
	return entry[lockMaker]{name, func(m *machine.Machine, home int) spinlock.Lock {
		l := reactive(m, home).(*core.ReactiveLock)
		l.Policy = mkPolicy()
		return l
	}}
}

// reactiveAlways is the catalog's reactive lock under the name the
// policy figures give its default always-switch policy.
func reactiveAlways() entry[lockMaker] {
	return entry[lockMaker]{"reactive-always", lockCatalog.named("reactive")}
}

// Fig3_21TimeVarying regenerates Figure 3.21: test&set, MCS and the
// reactive lock (always-switch policy) under time-varying contention,
// normalized to MCS.
func Fig3_21TimeVarying(sz Sizes) *stats.Table {
	return timeVaryTable(sz, append(lockCatalog.pick("mcs-queue", "test&set"), reactiveAlways()))
}

// Fig3_22Competitive regenerates Figure 3.22: the always-switch policy
// versus the 3-competitive policy (switch when the cumulative residual
// exceeds the 8800-cycle round-trip switching cost).
func Fig3_22Competitive(sz Sizes) *stats.Table {
	return timeVaryTable(sz, append(lockCatalog.pick("mcs-queue"), reactiveAlways(),
		reactiveWith("reactive-3competitive", func() policy.Policy { return policy.NewCompetitive(8800) })))
}

// Fig3_23Hysteresis regenerates Figure 3.23: hysteresis policies
// Hysteresis(20,55), Hysteresis(500,4) and Hysteresis(4,500).
func Fig3_23Hysteresis(sz Sizes) *stats.Table {
	algs := lockCatalog.pick("mcs-queue")
	for _, h := range [][2]uint64{{20, 55}, {500, 4}, {4, 500}} {
		algs = append(algs, reactiveWith(fmt.Sprintf("hysteresis(%d,%d)", h[0], h[1]),
			func() policy.Policy { return policy.NewHysteresis(h[0], h[1]) }))
	}
	return timeVaryTable(sz, algs)
}
