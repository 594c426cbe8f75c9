package core

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/machine"
)

// TestReactiveLockFuzzSchedules drives the reactive lock with randomized
// processor counts, critical-section lengths, think times and seeds, and
// checks mutual exclusion plus completion on every schedule.
func TestReactiveLockFuzzSchedules(t *testing.T) {
	f := func(seed uint64, rawProcs, rawCS, rawThink uint16) bool {
		procs := int(rawProcs%12) + 1
		cs := machine.Time(rawCS%400) + 1
		think := int(rawThink%1200) + 1
		cfg := machine.DefaultConfig(procs)
		cfg.Seed = seed
		m := machine.New(cfg)
		m.Eng.SetLimit(200_000_000)
		l := NewReactiveLock(m.Mem, 0)
		inCS := false
		violated := false
		done := 0
		for p := 0; p < procs; p++ {
			m.SpawnCPU(p, 0, "w", func(c *machine.CPU) {
				for i := 0; i < 12; i++ {
					h := l.Acquire(c)
					if inCS {
						violated = true
					}
					inCS = true
					c.Advance(cs)
					inCS = false
					l.Release(c, h)
					c.Advance(machine.Time(c.Rand().Intn(think)))
				}
				done++
			})
		}
		if err := m.Run(); err != nil {
			return false
		}
		return !violated && done == procs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestReactiveFOPFuzzPermutation drives the reactive fetch-and-op with
// randomized parameters and checks the fetch&add permutation invariant
// across whatever protocol changes occur.
func TestReactiveFOPFuzzPermutation(t *testing.T) {
	f := func(seed uint64, rawProcs, rawThink uint16, deltas []uint8) bool {
		procs := int(rawProcs%10) + 1
		think := int(rawThink%900) + 1
		cfg := machine.DefaultConfig(procs)
		cfg.Seed = seed
		m := machine.New(cfg)
		m.Eng.SetLimit(500_000_000)
		fo := NewReactiveFetchOp(m.Mem, 0, procs)
		const iters = 10
		var got []uint64
		var sum uint64
		for p := 0; p < procs; p++ {
			p := p
			m.SpawnCPU(p, 0, "w", func(c *machine.CPU) {
				for i := 0; i < iters; i++ {
					d := uint64(1)
					if len(deltas) > 0 {
						d = uint64(deltas[(p*iters+i)%len(deltas)])%5 + 1
					}
					got = append(got, fo.FetchAdd(c, d))
					sum += d
					c.Advance(machine.Time(c.Rand().Intn(think)))
				}
			})
		}
		if err := m.Run(); err != nil {
			return false
		}
		if fo.Value() != sum {
			return false
		}
		// Returned values must be distinct (each op observed a unique
		// prefix sum).
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		for i := 1; i < len(got); i++ {
			if got[i] == got[i-1] {
				return false
			}
		}
		return len(got) == procs*iters
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
