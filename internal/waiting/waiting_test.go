package waiting

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/threads"
)

type recorder struct{ waits []Time }

func (r *recorder) Observe(w Time) { r.waits = append(r.waits, w) }

func newSched(procs int) *threads.Scheduler {
	return threads.NewScheduler(machine.New(machine.DefaultConfig(procs)), threads.DefaultCosts())
}

// runWait makes a waiter wait for a flag set at time signalAt, with a
// coworker thread sharing the waiter's processor, and returns (time the
// waiter proceeded, cycles of coworker progress before the signal).
func runWait(t *testing.T, alg *Algorithm, signalAt Time) (proceeded Time, coworkerDone Time) {
	t.Helper()
	return runWaitOn(t, newSched(2), alg, signalAt)
}

// runWaitOn is runWait on the caller's two-processor scheduler, whose
// counters the caller can then read.
func runWaitOn(t *testing.T, s *threads.Scheduler, alg *Algorithm, signalAt Time) (proceeded Time, coworkerDone Time) {
	t.Helper()
	var q threads.WaitQueue
	flag := false
	s.Spawn(0, 0, "waiter", func(th *threads.Thread) {
		alg.Wait(th, func() bool { return flag }, &q)
		if !flag {
			t.Error("Wait returned before condition")
		}
		proceeded = th.Now()
	})
	s.Spawn(0, 0, "coworker", func(th *threads.Thread) {
		for i := 0; i < 200; i++ {
			th.Advance(100)
			th.Yield()
		}
		coworkerDone = th.Now()
	})
	s.Spawn(1, 0, "signaler", func(th *threads.Thread) {
		th.Advance(signalAt)
		flag = true
		q.WakeAll(th)
	})
	if err := s.Machine().Run(); err != nil {
		t.Fatal(err)
	}
	return proceeded, coworkerDone
}

func TestAlwaysSpinProceedsPromptly(t *testing.T) {
	proceeded, _ := runWait(t, Spin(), 3000)
	if proceeded < 3000 || proceeded > 3100 {
		t.Fatalf("spin waiter proceeded at %d, want ~3000", proceeded)
	}
}

func TestAlwaysBlockFreesProcessor(t *testing.T) {
	// While the waiter is blocked, the coworker must finish its 20000
	// cycles of work well before the (late) signal.
	proceeded, coworker := runWait(t, Block(), 100000)
	if proceeded < 100000 {
		t.Fatalf("block waiter proceeded at %d before signal", proceeded)
	}
	if coworker == 0 || coworker > 60000 {
		t.Fatalf("coworker finished at %d; should have run during the block", coworker)
	}
}

func TestTwoPhaseShortWaitNeverBlocks(t *testing.T) {
	s := newSched(2)
	var q threads.WaitQueue
	flag := false
	alg := TwoPhase(500)
	s.Spawn(0, 0, "waiter", func(th *threads.Thread) {
		alg.Wait(th, func() bool { return flag }, &q)
	})
	s.Spawn(1, 0, "signaler", func(th *threads.Thread) {
		th.Advance(200) // inside the polling window
		flag = true
		q.WakeAll(th)
	})
	if err := s.Machine().Run(); err != nil {
		t.Fatal(err)
	}
	if s.Blocks != 0 {
		t.Fatalf("two-phase blocked %d times during a short wait", s.Blocks)
	}
}

func TestTwoPhaseLongWaitBlocks(t *testing.T) {
	s := newSched(2)
	var q threads.WaitQueue
	flag := false
	alg := TwoPhase(500)
	s.Spawn(0, 0, "waiter", func(th *threads.Thread) {
		alg.Wait(th, func() bool { return flag }, &q)
	})
	s.Spawn(1, 0, "signaler", func(th *threads.Thread) {
		th.Advance(50000)
		flag = true
		q.WakeAll(th)
	})
	if err := s.Machine().Run(); err != nil {
		t.Fatal(err)
	}
	if s.Blocks == 0 {
		t.Fatal("two-phase never blocked during a long wait")
	}
}

func TestTwoPhaseWorstCaseIsBounded(t *testing.T) {
	// 2phase(B) costs at most Lpoll + B ≈ 2B of waiting overhead even when
	// the signal arrives just after the polling phase ends — the classic
	// 2-competitive worst case.
	costs := threads.DefaultCosts()
	b := costs.BlockCost()
	alg := TwoPhaseAlpha(1.0, costs)
	signalAt := alg.Lpoll + 50 // just missed the polling window
	proceeded, _ := runWait(t, alg, signalAt)
	// The waiter resumes after wake + reload; total overhead past the
	// signal must stay within ~B.
	if proceeded > signalAt+b+200 {
		t.Fatalf("worst-case two-phase proceeded at %d for signal at %d (B=%d)", proceeded, signalAt, b)
	}
}

func TestProfilerObservesWaits(t *testing.T) {
	rec := &recorder{}
	alg := Spin()
	alg.Prof = rec
	runWait(t, alg, 2000)
	if len(rec.waits) != 1 {
		t.Fatalf("%d observations", len(rec.waits))
	}
	if rec.waits[0] < 1900 || rec.waits[0] > 2200 {
		t.Fatalf("observed wait %d, want ~2000", rec.waits[0])
	}
}

func TestSwitchSpinLetsCoworkerRun(t *testing.T) {
	// Switch-spinning interleaves the coworker while polling.
	proceeded, coworker := runWait(t, SwitchSpin(), 30000)
	if proceeded < 30000 {
		t.Fatal("switch-spin returned early")
	}
	if coworker == 0 || coworker > 60000 {
		t.Fatalf("coworker at %d; switch-spinning should share the processor", coworker)
	}
}

func TestTwoPhaseSwitchBlocksEventually(t *testing.T) {
	s := newSched(2)
	var q threads.WaitQueue
	flag := false
	alg := TwoPhaseSwitch(400)
	s.Spawn(0, 0, "waiter", func(th *threads.Thread) {
		alg.Wait(th, func() bool { return flag }, &q)
	})
	s.Spawn(1, 0, "signaler", func(th *threads.Thread) {
		th.Advance(80000)
		flag = true
		q.WakeAll(th)
	})
	if err := s.Machine().Run(); err != nil {
		t.Fatal(err)
	}
	if s.Blocks == 0 {
		t.Fatal("two-phase-switch never blocked")
	}
}

// TestCorners pins the one algorithm's corners under both polling
// mechanisms: Lpoll = 0 blocks on a wait a small budget polls through,
// Forever never blocks, and a finite budget blocks iff the wait's polling
// cost outlasts it. The waiter shares its processor with a coworker, so
// switch-spinning really switches.
func TestCorners(t *testing.T) {
	for _, tc := range []struct {
		alg      *Algorithm
		signalAt Time
		blocks   uint64
	}{
		// 400 cycles outlasts the 300-cycle unload, after which Block checks
		// the condition one last time, and is still inside a 500-cycle budget.
		{Block(), 400, 1},
		{Spin(), 100000, 0},
		{SwitchSpin(), 100000, 0},
		{TwoPhase(500), 400, 0},
		{TwoPhase(500), 50000, 1},
		{TwoPhaseAlpha(1.0, threads.DefaultCosts()), 200, 0},
		{TwoPhaseAlpha(1.0, threads.DefaultCosts()), 50000, 1},
		// A switch-spinning poll costs 18 cycles (switch + PollGrain) and
		// comes round once per 100-cycle coworker quantum: a 1000-cycle wait
		// spends 250 cycles spinning but well under that switch-spinning.
		{TwoPhase(250), 1000, 1},
		{TwoPhaseSwitch(250), 1000, 0},
		{TwoPhaseSwitch(250), 80000, 1},
	} {
		rec := &recorder{}
		tc.alg.Prof = rec
		s := newSched(2)
		proceeded, _ := runWaitOn(t, s, tc.alg, tc.signalAt)
		if proceeded < tc.signalAt {
			t.Errorf("%s: proceeded at %d before the signal at %d", tc.alg.Name(), proceeded, tc.signalAt)
		}
		if s.Blocks != tc.blocks {
			t.Errorf("%s, signal at %d: %d blocks, want %d", tc.alg.Name(), tc.signalAt, s.Blocks, tc.blocks)
		}
		if len(rec.waits) != 1 {
			t.Errorf("%s, signal at %d: %d profile observations for one Wait", tc.alg.Name(), tc.signalAt, len(rec.waits))
		}
	}
}

// TestProfilerSeesAlreadyTrue covers the third exit: a condition that holds
// on entry is still one observation, under every constructor.
func TestProfilerSeesAlreadyTrue(t *testing.T) {
	for _, alg := range []*Algorithm{Spin(), Block(), TwoPhase(500), TwoPhaseAlpha(0.54, threads.DefaultCosts()), SwitchSpin(), TwoPhaseSwitch(250)} {
		rec := &recorder{}
		alg.Prof = rec
		s := newSched(1)
		var q threads.WaitQueue
		s.Spawn(0, 0, "waiter", func(th *threads.Thread) {
			alg.Wait(th, func() bool { return true }, &q)
		})
		if err := s.Machine().Run(); err != nil {
			t.Fatal(err)
		}
		if len(rec.waits) != 1 || rec.waits[0] != 0 || s.Blocks != 0 {
			t.Errorf("%s: observations %v, %d blocks; want one zero-length wait and no block", alg.Name(), rec.waits, s.Blocks)
		}
	}
}

func TestNames(t *testing.T) {
	costs := threads.DefaultCosts()
	for _, pair := range []struct {
		alg  *Algorithm
		want string
	}{
		{Spin(), "always-spin"},
		{Block(), "always-block"},
		{TwoPhase(500), "2phase(L=500)"},
		{TwoPhaseAlpha(0.54, costs), "2phase(0.54B)"},
		{SwitchSpin(), "switch-spin"},
		{TwoPhaseSwitch(250), "2phase-switch(L=250)"},
	} {
		if pair.alg.Name() != pair.want {
			t.Errorf("name %q, want %q", pair.alg.Name(), pair.want)
		}
	}
}
