package sim

import (
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
	"time"
)

// wantGoroutines fails the test unless the goroutine count returns to n:
// every way out of Run must release every actor's goroutine.
func wantGoroutines(t *testing.T, n int) {
	t.Helper()
	var got int
	for i := 0; i < 100; i++ {
		if got = runtime.NumGoroutine(); got <= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Errorf("%d goroutines after Run, %d before", got, n)
}

func TestAdvanceOrdering(t *testing.T) {
	e := New(1)
	var order []string
	e.Spawn("a", 0, func(a *Actor) {
		a.Advance(10)
		order = append(order, "a@10")
		a.Advance(20)
		order = append(order, "a@30")
	})
	e.Spawn("b", 0, func(a *Actor) {
		a.Advance(15)
		order = append(order, "b@15")
		a.Advance(5)
		order = append(order, "b@20")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a@10", "b@15", "b@20", "a@30"}
	if len(order) != len(want) {
		t.Fatalf("got %v want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("got %v want %v", order, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("final time = %d, want 30", e.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	e := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Spawn("x", 5, func(a *Actor) {
			order = append(order, i)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events out of spawn order: %v", order)
		}
	}
}

func TestParkWake(t *testing.T) {
	e := New(1)
	var woken Time
	var sleeper *Actor
	sleeper = e.Spawn("sleeper", 0, func(a *Actor) {
		a.Park()
		woken = a.Now()
	})
	e.Spawn("waker", 0, func(a *Actor) {
		a.Advance(100)
		a.Wake(sleeper, a.Now()+7)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woken != 107 {
		t.Fatalf("woken at %d, want 107", woken)
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := New(1)
	e.Spawn("stuck", 0, func(a *Actor) {
		a.Park()
	})
	err := e.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("expected DeadlockError, got %v", err)
	}
	if len(de.Parked) != 1 || de.Parked[0] != "stuck" {
		t.Fatalf("parked = %v", de.Parked)
	}
}

func TestStopDrainsActors(t *testing.T) {
	e := New(1)
	finished := false
	e.Spawn("looper", 0, func(a *Actor) {
		for {
			a.Advance(10)
		}
	})
	e.Spawn("parker", 0, func(a *Actor) {
		a.Park()
		finished = true // must not run: drained, not woken
	})
	e.Spawn("stopper", 0, func(a *Actor) {
		a.Advance(55)
		a.Engine().Stop()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if finished {
		t.Fatal("drained actor resumed its body")
	}
}

func TestSpawnFromActor(t *testing.T) {
	e := New(1)
	var childTime Time
	e.Spawn("parent", 0, func(a *Actor) {
		a.Advance(42)
		a.Engine().Spawn("child", a.Now()+8, func(c *Actor) {
			childTime = c.Now()
		})
		a.Advance(100)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if childTime != 50 {
		t.Fatalf("child started at %d, want 50", childTime)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []Time {
		e := New(99)
		var trace []Time
		for i := 0; i < 8; i++ {
			e.Spawn("p", 0, func(a *Actor) {
				for j := 0; j < 50; j++ {
					a.Advance(Time(a.Rand().Intn(20) + 1))
					trace = append(trace, a.Now())
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	t1, t2 := run(), run()
	if len(t1) != len(t2) {
		t.Fatal("non-deterministic trace length")
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("trace diverges at %d: %d vs %d", i, t1[i], t2[i])
		}
	}
}

func TestRandUniformity(t *testing.T) {
	r := NewRand(7)
	const n = 100000
	buckets := make([]int, 10)
	for i := 0; i < n; i++ {
		buckets[r.Intn(10)]++
	}
	for i, b := range buckets {
		if b < n/10-n/50 || b > n/10+n/50 {
			t.Fatalf("bucket %d count %d far from %d", i, b, n/10)
		}
	}
}

func TestRandFloat64Range(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := NewRand(seed)
		for i := 0; i < 100; i++ {
			f := r.Float64()
			if f < 0 || f >= 1 {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := NewRand(3)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.ExpFloat64()
	}
	mean := sum / n
	if mean < 0.98 || mean > 1.02 {
		t.Fatalf("exponential mean = %f, want ~1", mean)
	}
}

func TestAdvanceZero(t *testing.T) {
	e := New(1)
	e.Spawn("z", 0, func(a *Actor) {
		before := a.Now()
		a.Advance(0)
		if a.Now() != before {
			t.Errorf("Advance(0) moved time")
		}
		a.AdvanceTo(0)
		if a.Now() != before {
			t.Errorf("AdvanceTo(past) moved time")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWakeNotParkedPanics(t *testing.T) {
	e := New(1)
	var b *Actor
	b = e.Spawn("b", 1000, func(a *Actor) {})
	e.Spawn("a", 0, func(a *Actor) {
		defer func() {
			if recover() == nil {
				t.Error("Wake on non-parked actor did not panic")
			}
		}()
		a.Wake(b, 5)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestSameTimeFIFOAcrossKinds: an actor's resumption, a fresh actor's first
// dispatch and an inline event, all due at the same cycle, fire in the
// order they were scheduled — whatever kind each is and whoever holds
// control when it comes up.
func TestSameTimeFIFOAcrossKinds(t *testing.T) {
	e := New(1)
	var order []string
	note := func(s string) func() { return func() { order = append(order, s) } }
	e.At(10, note("1:inline"))
	e.Spawn("fresh", 10, func(*Actor) { order = append(order, "2:fresh") })
	e.Spawn("resumed", 0, func(a *Actor) {
		e.At(10, note("4:inline"))
		e.Spawn("fresh", 10, func(*Actor) { order = append(order, "5:fresh") })
		a.AdvanceTo(10)
		order = append(order, "6:resumed")
	})
	e.At(10, note("3:inline")) // before Run, so ahead of all the actor schedules at cycle 0
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"1:inline", "2:fresh", "3:inline", "4:inline", "5:fresh", "6:resumed"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("got %v want %v", order, want)
	}
}

func TestSelfContinuation(t *testing.T) {
	const n = 1000
	e := New(1)
	var allocs float64
	e.Spawn("solo", 0, func(a *Actor) {
		for i := 0; i < n-101; i++ {
			a.Advance(1)
		}
		allocs = testing.AllocsPerRun(100, func() { a.Advance(1) }) // 101 calls
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("a self-continuing Advance allocates %v times", allocs)
	}
	if e.Now() != n {
		t.Fatalf("Now() = %d after %d Advance(1), want %d", e.Now(), n, n)
	}
	if e.seq != n+1 {
		t.Fatalf("consumed %d sequence numbers, want %d: a resumption taken without queueing still takes its number", e.seq, n+1)
	}
}

// TestSelfContinuationYieldsTies: an actor advancing to a cycle where a
// peer is already due must not run ahead of it, even though its own
// resumption is the only thing it would have to wait for otherwise.
func TestSelfContinuationYieldsTies(t *testing.T) {
	e := New(1)
	var order []string
	e.Spawn("a", 0, func(a *Actor) {
		a.Advance(10) // b is queued for 10 already: a must go behind it
		order = append(order, "a@10")
		a.Advance(4) // nothing before 14: taken without a switch
		order = append(order, "a@14")
		a.Advance(6) // b is due at 15
		order = append(order, "a@20")
	})
	e.Spawn("b", 10, func(a *Actor) {
		order = append(order, "b@10")
		a.Advance(5)
		order = append(order, "b@15")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"b@10", "a@10", "a@14", "b@15", "a@20"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("got %v want %v", order, want)
	}
}

func TestInlineEventMaySpawnWakeAndSchedule(t *testing.T) {
	e := New(1)
	var woken, child, chained Time
	sleeper := e.Spawn("sleeper", 0, func(a *Actor) {
		a.Park()
		woken = a.Now()
	})
	e.At(20, func() {
		e.WakeAt(sleeper, e.Now()+3)
		e.Spawn("child", e.Now()+5, func(a *Actor) { child = a.Now() })
		e.At(e.Now()+7, func() { chained = e.Now() })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woken != 23 || child != 25 || chained != 27 {
		t.Fatalf("woken %d child %d chained %d, want 23 25 27", woken, child, chained)
	}
}

func TestNewActorIDKeepsLaterStreams(t *testing.T) {
	draw := func(burn bool) uint64 {
		e := New(7)
		e.Spawn("first", 0, func(*Actor) {})
		if burn {
			e.NewActorID()
		} else {
			e.Spawn("second", 0, func(*Actor) {})
		}
		var v uint64
		e.Spawn("third", 0, func(a *Actor) { v = a.Rand().Uint64() })
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return v
	}
	if draw(true) != draw(false) {
		t.Fatal("an id taken by NewActorID shifted a later actor's RNG stream")
	}
}

// Every exit from Run — Stop, the cycle limit, a deadlock — releases the
// goroutine of every actor, suspended mid-body or never dispatched.
func TestExitsLeaveNoGoroutines(t *testing.T) {
	spawnParkers := func(e *Engine) {
		e.Spawn("zz-parked", 0, func(a *Actor) { a.Park() })
		e.Spawn("aa-parked", 0, func(a *Actor) { a.Park() })
	}
	spawnLeftovers := func(e *Engine) {
		spawnParkers(e)
		e.Spawn("never-dispatched", 1<<40, func(*Actor) { t.Error("never-dispatched actor ran") })
	}
	t.Run("stop", func(t *testing.T) {
		before := runtime.NumGoroutine()
		e := New(1)
		spawnLeftovers(e)
		e.Spawn("looper", 0, func(a *Actor) {
			for {
				a.Advance(10)
			}
		})
		e.Spawn("stopper", 0, func(a *Actor) {
			a.Advance(55)
			e.Stop()
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		wantGoroutines(t, before)
	})
	t.Run("limit", func(t *testing.T) {
		before := runtime.NumGoroutine()
		e := New(1)
		e.SetLimit(1000)
		spawnLeftovers(e)
		e.Spawn("a-looper", 0, func(a *Actor) {
			for {
				a.Advance(10)
			}
		})
		e.Spawn("b-looper", 5, func(a *Actor) {
			for {
				a.Advance(10)
			}
		})
		err := e.Run()
		if le, ok := err.(*LimitError); !ok || le.Limit != 1000 {
			t.Fatalf("expected LimitError at 1000, got %v", err)
		}
		wantGoroutines(t, before)
	})
	t.Run("limit-solo", func(t *testing.T) {
		// One actor never leaves the no-switch path; the limit must still stop it.
		before := runtime.NumGoroutine()
		e := New(1)
		e.SetLimit(1000)
		e.Spawn("solo", 0, func(a *Actor) {
			for {
				a.Advance(10)
			}
		})
		if _, ok := e.Run().(*LimitError); !ok {
			t.Fatal("expected LimitError")
		}
		wantGoroutines(t, before)
	})
	t.Run("deadlock", func(t *testing.T) {
		before := runtime.NumGoroutine()
		e := New(1)
		spawnParkers(e)
		err := e.Run()
		de, ok := err.(*DeadlockError)
		if !ok {
			t.Fatalf("expected DeadlockError, got %v", err)
		}
		if want := []string{"aa-parked", "zz-parked"}; !reflect.DeepEqual(de.Parked, want) {
			t.Fatalf("parked = %v, want %v (sorted)", de.Parked, want)
		}
		wantGoroutines(t, before)
	})
}

// TestActorPanicReachesRunCaller: a panic in an actor's body (or in an
// inline event) unwinds through Run into its caller, where a recover can
// see it, after Run has released every other actor.
func TestActorPanicReachesRunCaller(t *testing.T) {
	for _, tc := range []struct {
		name string
		boom func(e *Engine)
	}{
		{"actor body", func(e *Engine) {
			e.Spawn("bomb", 0, func(a *Actor) {
				a.Advance(50)
				panic("boom")
			})
		}},
		{"inline event run by Run", func(e *Engine) {
			e.At(1<<30, func() { panic("boom") })
		}},
		{"inline event run by a yielding actor", func(e *Engine) {
			e.At(50, func() { panic("boom") })
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			e := New(1)
			e.Spawn("parker", 0, func(a *Actor) { a.Park() })
			e.Spawn("looper", 0, func(a *Actor) {
				for i := 0; i < 100; i++ {
					a.Advance(10)
				}
			})
			e.Spawn("late", 1<<20, func(*Actor) {})
			tc.boom(e)
			var got any
			func() {
				defer func() { got = recover() }()
				e.Run()
			}()
			if got != "boom" {
				t.Fatalf("Run's caller recovered %v, want the actor's panic value", got)
			}
			wantGoroutines(t, before)
			if e.running {
				t.Error("engine still marked running after the panic")
			}
		})
	}
}

// BenchmarkEngineSelfAdvance is the dispatch floor: one actor, so every
// event popped is the yielding actor's own and nothing switches.
func BenchmarkEngineSelfAdvance(b *testing.B) {
	e := New(1)
	e.Spawn("a", 0, func(a *Actor) {
		for i := 0; i < b.N; i++ {
			a.Advance(1)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEngineCrossActor is the dispatch ceiling: 32 actors in
// lockstep, so every event belongs to an actor other than the one
// yielding and costs a switch out to Run and a switch in.
func BenchmarkEngineCrossActor(b *testing.B) {
	const actors = 32
	e := New(1)
	for i := 0; i < actors; i++ {
		e.Spawn("a", 0, func(a *Actor) {
			for i := 0; i < b.N/actors; i++ {
				a.Advance(1)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}
