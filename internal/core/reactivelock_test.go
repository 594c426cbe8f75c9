package core

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/spinlock"
	"repro/reactive/policy"
)

// exerciseLock runs the reactive lock under the standard loop and checks
// mutual exclusion.
func exerciseLock(t *testing.T, procs, iters int, tune func(*ReactiveLock)) (*ReactiveLock, machine.Time) {
	t.Helper()
	m := machine.New(machine.DefaultConfig(procs))
	l := NewReactiveLock(m.Mem, 0)
	if tune != nil {
		tune(l)
	}
	inCS := false
	var end machine.Time
	for p := 0; p < procs; p++ {
		m.SpawnCPU(p, 0, "w", func(c *machine.CPU) {
			for i := 0; i < iters; i++ {
				h := l.Acquire(c)
				if inCS {
					t.Error("reactive lock: mutual exclusion violated")
				}
				inCS = true
				c.Advance(100)
				inCS = false
				l.Release(c, h)
				c.Advance(machine.Time(c.Rand().Intn(500)))
			}
			if c.Now() > end {
				end = c.Now()
			}
		})
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	return l, end
}

func TestReactiveLockMutualExclusion(t *testing.T) {
	for _, procs := range []int{1, 2, 3, 8, 16, 32} {
		exerciseLock(t, procs, 15, nil)
	}
}

func TestReactiveLockStaysTTSWhenUncontended(t *testing.T) {
	l, _ := exerciseLock(t, 1, 100, nil)
	if l.Mode() != modeTTS {
		t.Fatalf("mode = %d after uncontended run, want TTS", l.Mode())
	}
	if l.Changes != 0 {
		t.Fatalf("%d protocol changes during uncontended run", l.Changes)
	}
}

func TestReactiveLockSwitchesToQueueUnderContention(t *testing.T) {
	l, _ := exerciseLock(t, 16, 30, nil)
	if l.Mode() != modeQueue {
		t.Fatalf("mode = %d after 16-way contention, want QUEUE", l.Mode())
	}
	if l.Changes == 0 {
		t.Fatal("no protocol change under contention")
	}
}

func TestReactiveLockSwitchesBackToTTS(t *testing.T) {
	// High contention phase, then a single processor: must return to TTS.
	m := machine.New(machine.DefaultConfig(16))
	l := NewReactiveLock(m.Mem, 0)
	inCS := false
	cs := func(c *machine.CPU) {
		h := l.Acquire(c)
		if inCS {
			t.Error("mutual exclusion violated")
		}
		inCS = true
		c.Advance(100)
		inCS = false
		l.Release(c, h)
	}
	for p := 0; p < 16; p++ {
		m.SpawnCPU(p, 0, "hot", func(c *machine.CPU) {
			for i := 0; i < 20; i++ {
				cs(c)
				c.Advance(machine.Time(c.Rand().Intn(250)))
			}
		})
	}
	m.SpawnCPU(0, 400000, "solo", func(c *machine.CPU) {
		for i := 0; i < 60; i++ {
			cs(c)
			c.Advance(50)
		}
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if l.Mode() != modeTTS {
		t.Fatalf("mode = %d after contention subsided, want TTS", l.Mode())
	}
	if l.Changes < 2 {
		t.Fatalf("expected at least 2 protocol changes, got %d", l.Changes)
	}
}

// TestReactiveLockFlappingChangesSerialize drives the lock through
// frequent protocol changes: finishChange panics, failing the run, on any
// change that does not start from the valid protocol.
func TestReactiveLockFlappingChangesSerialize(t *testing.T) {
	m := machine.New(machine.DefaultConfig(12))
	l := NewReactiveLock(m.Mem, 0)
	l.EmptyQueueLimit = 1 // encourage frequent flapping
	l.TTSRetryLimit = 1
	inCS := false
	for p := 0; p < 12; p++ {
		m.SpawnCPU(p, 0, "w", func(c *machine.CPU) {
			for i := 0; i < 25; i++ {
				h := l.Acquire(c)
				if inCS {
					t.Error("mutual exclusion violated")
				}
				inCS = true
				c.Advance(40)
				inCS = false
				l.Release(c, h)
				// Alternate burst and idle to force mode changes.
				if i%5 == 0 {
					c.Advance(machine.Time(c.Rand().Intn(4000)))
				}
			}
		})
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if l.Changes == 0 {
		t.Fatal("test did not exercise protocol changes")
	}
}

func TestReactiveLockCompetitivePolicy(t *testing.T) {
	l, _ := exerciseLock(t, 16, 30, func(l *ReactiveLock) {
		l.Policy = policy.NewCompetitive(2000)
	})
	if l.Mode() != modeQueue {
		t.Fatal("competitive policy never switched under sustained contention")
	}
}

func TestReactiveLockHysteresisPolicy(t *testing.T) {
	l, _ := exerciseLock(t, 16, 30, func(l *ReactiveLock) {
		l.Policy = policy.NewHysteresis(4, 500)
	})
	if l.Mode() != modeQueue {
		t.Fatal("hysteresis policy never switched under sustained contention")
	}
}

func TestReactiveLockNonOptimistic(t *testing.T) {
	l, _ := exerciseLock(t, 8, 20, func(l *ReactiveLock) { l.Optimistic = false })
	_ = l
}

func TestReactiveLockAsSpinlockInterface(t *testing.T) {
	// The reactive lock satisfies spinlock.Lock, so harnesses can treat all
	// protocols uniformly.
	var _ spinlock.Lock = (*ReactiveLock)(nil)
}

func TestReactiveLockDeterminism(t *testing.T) {
	_, e1 := exerciseLock(t, 6, 20, nil)
	_, e2 := exerciseLock(t, 6, 20, nil)
	if e1 != e2 {
		t.Fatalf("non-deterministic: %d vs %d", e1, e2)
	}
}

func TestReactiveLockNearTTSWhenUncontendedCost(t *testing.T) {
	// Baseline shape: uncontended reactive lock should be close to the
	// plain TTS lock, far below the MCS lock (Figure 3.15 left, P=1).
	solo := func(l spinlock.Lock, m *machine.Machine) machine.Time {
		var lat machine.Time
		m.SpawnCPU(0, 0, "solo", func(c *machine.CPU) {
			h := l.Acquire(c)
			l.Release(c, h) // warm
			start := c.Now()
			for i := 0; i < 200; i++ {
				h := l.Acquire(c)
				l.Release(c, h)
			}
			lat = (c.Now() - start) / 200
		})
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return lat
	}
	m1 := machine.New(machine.DefaultConfig(2))
	reactive := solo(NewReactiveLock(m1.Mem, 0), m1)
	m2 := machine.New(machine.DefaultConfig(2))
	tts := solo(spinlock.NewTTS(m2.Mem, 0, spinlock.DefaultBackoff), m2)
	m3 := machine.New(machine.DefaultConfig(2))
	mcs := solo(spinlock.NewMCS(m3.Mem, 0), m3)
	if float64(reactive) > 1.4*float64(tts) {
		t.Errorf("uncontended reactive lock %d cycles vs tts %d — overhead too high", reactive, tts)
	}
	if reactive >= mcs {
		t.Errorf("uncontended reactive lock %d should beat mcs %d", reactive, mcs)
	}
}
