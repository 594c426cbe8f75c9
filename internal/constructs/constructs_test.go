package constructs

import (
	"sort"
	"testing"

	"repro/internal/machine"
	"repro/internal/threads"
	"repro/internal/waiting"
)

func newSched(procs int) *threads.Scheduler {
	return threads.NewScheduler(machine.New(machine.DefaultConfig(procs)), threads.DefaultCosts())
}

func algorithms() []*waiting.Algorithm {
	costs := threads.DefaultCosts()
	return []*waiting.Algorithm{
		waiting.Spin(),
		waiting.Block(),
		waiting.TwoPhaseAlpha(0.54, costs),
		waiting.TwoPhaseAlpha(1.0, costs),
		waiting.SwitchSpin(),
		waiting.TwoPhaseSwitch(250),
	}
}

func TestFutureAllAlgorithms(t *testing.T) {
	for _, alg := range algorithms() {
		alg := alg
		t.Run(alg.Name(), func(t *testing.T) {
			s := newSched(4)
			f := NewFuture(s.Machine().Mem, 0)
			var got uint64
			s.Spawn(0, 0, "consumer", func(th *threads.Thread) {
				got = f.Touch(th, alg)
			})
			// A second thread on the consumer's processor so blocking has
			// somewhere to switch to.
			s.Spawn(0, 0, "filler", func(th *threads.Thread) {
				for i := 0; i < 30; i++ {
					th.Advance(300)
					th.Yield()
				}
			})
			s.Spawn(1, 0, "producer", func(th *threads.Thread) {
				th.Advance(4000)
				f.Resolve(th, 99)
			})
			if err := s.Machine().Run(); err != nil {
				t.Fatal(err)
			}
			if got != 99 {
				t.Fatalf("touched %d, want 99", got)
			}
		})
	}
}

func TestFutureAlreadyResolvedIsFast(t *testing.T) {
	s := newSched(2)
	f := NewFuture(s.Machine().Mem, 0)
	s.Spawn(0, 0, "producer", func(th *threads.Thread) {
		f.Resolve(th, 7)
	})
	s.Spawn(1, 2000, "consumer", func(th *threads.Thread) {
		start := th.Now()
		v := f.Touch(th, waiting.Block())
		if v != 7 {
			t.Errorf("value %d", v)
		}
		if th.Now()-start > 100 {
			t.Errorf("touch of resolved future cost %d cycles", th.Now()-start)
		}
	})
	if err := s.Machine().Run(); err != nil {
		t.Fatal(err)
	}
}

func TestJStructurePipeline(t *testing.T) {
	for _, alg := range algorithms() {
		alg := alg
		t.Run(alg.Name(), func(t *testing.T) {
			s := newSched(4)
			j := NewJStructure(s.Machine().Mem, 32)
			sum := uint64(0)
			s.Spawn(0, 0, "writer", func(th *threads.Thread) {
				for i := 0; i < 32; i++ {
					th.Advance(200) // compute
					j.Write(th, i, uint64(i*i))
				}
			})
			s.Spawn(1, 0, "reader", func(th *threads.Thread) {
				for i := 0; i < 32; i++ {
					sum += j.Read(th, i, alg)
				}
			})
			s.Spawn(1, 0, "filler", func(th *threads.Thread) {
				for i := 0; i < 20; i++ {
					th.Advance(200)
					th.Yield()
				}
			})
			if err := s.Machine().Run(); err != nil {
				t.Fatal(err)
			}
			want := uint64(0)
			for i := 0; i < 32; i++ {
				want += uint64(i * i)
			}
			if sum != want {
				t.Fatalf("sum %d, want %d", sum, want)
			}
		})
	}
}

func TestBarrierRounds(t *testing.T) {
	for _, alg := range algorithms() {
		alg := alg
		t.Run(alg.Name(), func(t *testing.T) {
			const procs, rounds = 6, 8
			s := newSched(procs)
			b := NewBarrier(s.Machine().Mem, 0, procs)
			counts := make([]int, rounds)
			for p := 0; p < procs; p++ {
				p := p
				s.Spawn(p, 0, "w", func(th *threads.Thread) {
					for r := 0; r < rounds; r++ {
						th.Advance(machine.Time(th.Rand().Intn(2000)))
						// No one may enter round r+1 until all have
						// finished round r.
						counts[r]++
						b.Wait(th, alg)
						if counts[r] != procs {
							t.Errorf("%s: round %d entered with %d/%d arrivals (p%d)",
								alg.Name(), r, counts[r], procs, p)
						}
					}
				})
			}
			if err := s.Machine().Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestMutexExclusionAllAlgorithms(t *testing.T) {
	for _, alg := range algorithms() {
		alg := alg
		t.Run(alg.Name(), func(t *testing.T) {
			const procs = 6
			s := newSched(procs)
			m := NewMutex(s.Machine().Mem, 0)
			inCS := false
			total := 0
			for p := 0; p < procs; p++ {
				s.Spawn(p, 0, "w", func(th *threads.Thread) {
					for i := 0; i < 15; i++ {
						m.Lock(th, alg)
						if inCS {
							t.Errorf("%s: mutual exclusion violated", alg.Name())
						}
						inCS = true
						th.Advance(100)
						inCS = false
						m.Unlock(th)
						th.Advance(machine.Time(th.Rand().Intn(400)))
					}
					total += 15
				})
			}
			if err := s.Machine().Run(); err != nil {
				t.Fatal(err)
			}
			if total != procs*15 {
				t.Fatalf("completed %d", total)
			}
		})
	}
}

func TestCountingNetworkPermutation(t *testing.T) {
	const procs, iters = 8, 12
	s := newSched(procs)
	n := NewCountingNetwork(s.Machine().Mem, 8)
	var got []uint64
	for p := 0; p < procs; p++ {
		s.Spawn(p, 0, "tok", func(th *threads.Thread) {
			for i := 0; i < iters; i++ {
				got = append(got, n.Next(th, waiting.Spin()))
				th.Advance(machine.Time(th.Rand().Intn(200)))
			}
		})
	}
	if err := s.Machine().Run(); err != nil {
		t.Fatal(err)
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	for i, v := range got {
		if v != uint64(i) {
			t.Fatalf("counting property violated at %d: got %d (values %v...)", i, v, got[:min(len(got), 20)])
		}
	}
}

func TestCountingNetworkDepth(t *testing.T) {
	s := newSched(2)
	n := NewCountingNetwork(s.Machine().Mem, 8)
	// Bitonic[8] has depth 1+2+3 = 6 stages.
	if n.Depth() != 6 {
		t.Fatalf("depth = %d, want 6", n.Depth())
	}
	if n.Width() != 8 {
		t.Fatalf("width = %d", n.Width())
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
