package reactive

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/reactive/modal"
	"repro/reactive/policy"
)

func TestCounterZeroValue(t *testing.T) {
	var c Counter
	if got := c.Load(); got != 0 {
		t.Fatalf("zero value Load = %d, want 0", got)
	}
	c.Add(5)
	c.Add(-2)
	if got := c.Load(); got != 3 {
		t.Fatalf("Load = %d, want 3", got)
	}
	if st := c.Stats(); st.Mode != ModeCAS || st.Switches != 0 {
		t.Fatalf("Stats = %+v, want cas mode, 0 switches", st)
	}
}

// forceSharded drives the counter into the sharded protocol via the
// detection machinery itself.
func forceSharded(t *testing.T, c *Counter) {
	t.Helper()
	for i := 0; c.Stats().Mode != ModeSharded; i++ {
		c.f.observe(fCAS, modal.Busy)
		if i > 10*DefaultSpinFailLimit {
			t.Fatal("could not force sharded mode")
		}
	}
}

// TestCounterDetectionStreak pins Counter's cheap→scalable detection to
// the documented semantics: a probe that finds the word moved since its
// own add (another writer's update landed in between) is Busy,
// SpinFailLimit consecutive Busy probes switch ModeCAS → ModeSharded,
// and a probe that finds the word unchanged is Calm and breaks the
// streak.
func TestCounterDetectionStreak(t *testing.T) {
	var c Counter
	c.Add(100)
	busy := func() { c.probe(c.f.base.Load() - 1) } // another writer added 1
	for i := 0; i < DefaultSpinFailLimit-1; i++ {
		busy()
	}
	c.probe(c.f.base.Load()) // Calm: break the streak
	for i := 0; i < DefaultSpinFailLimit-1; i++ {
		busy()
		if c.Stats().Mode != ModeCAS {
			t.Fatalf("switched after %d Busy probes, want %d", i+1, DefaultSpinFailLimit)
		}
	}
	busy()
	if c.Stats().Mode != ModeSharded {
		t.Fatal("did not switch after a full Busy streak")
	}
	if got := c.Load(); got != 100 {
		t.Fatalf("Load = %d, want 100: a probe must not write", got)
	}
}

// TestCounterProbeRule pins which ModeCAS adds probe: about one in 32,
// whatever the delta's sign or size and whatever the count's value — an
// add oscillating inside a small range probes as often as a growing one
// — and Add(0) never. The adds here are uncontended, so every probe is
// Calm; an injected counting policy, made dirty by one Busy vote, hears
// each as one Optimal.
func TestCounterProbeRule(t *testing.T) {
	const adds = probeEvery * 256 // expect 256 probes, σ ≈ 16
	for _, tc := range []struct {
		name  string
		from  int64
		delta func(i int) int64
	}{
		{"+1", 0, func(int) int64 { return 1 }},
		{"-1", 0, func(int) int64 { return -1 }},
		{"+64", 5, func(int) int64 { return 64 }},
		{"-500", 10, func(int) int64 { return -500 }},
		{"+2^40", 0, func(int) int64 { return 1 << 40 }},
		{"±1 inside one window", 10, func(i int) int64 { return 1 - 2*int64(i&1) }},
		{"±63 inside one window", 0, func(i int) int64 { return 63 - 126*int64(i&1) }},
		{"0", 63, func(int) int64 { return 0 }},
	} {
		p := &countingPolicy{}
		c := NewCounter(WithPolicy(p))
		c.f.base.Store(tc.from)
		c.f.observe(fCAS, modal.Busy) // dirty: later Optimals reach p
		want := tc.from
		for i := 0; i < adds; i++ {
			d := tc.delta(i)
			c.Add(d)
			want += d
		}
		if got := c.f.base.Load(); got != want {
			t.Fatalf("%s: word %d, want %d", tc.name, got, want)
		}
		if p.sub != 1 || c.Stats().Mode != ModeCAS {
			t.Fatalf("%s: %d Busy votes, mode %v: an uncontended probe must be Calm", tc.name, p.sub-1, c.Stats().Mode)
		}
		lo, hi := adds/probeEvery/2, 2*adds/probeEvery
		if tc.name == "0" {
			lo, hi = 0, 0
		}
		if p.opt < lo || p.opt > hi {
			t.Errorf("%s: %d probes in %d adds, want within [%d, %d]", tc.name, p.opt, adds, lo, hi)
		}
	}
}

// TestCounterAddZeroWritesNothing: Add(0) returns before touching the
// counter in every mode — no add, no cell deposit, no vote.
func TestCounterAddZeroWritesNothing(t *testing.T) {
	for _, m := range []Mode{ModeCAS, ModeSharded, ModeCombining} {
		c := NewCounter(WithInitialMode(m))
		c.Add(0)
		if got := c.Load(); got != 0 {
			t.Fatalf("%v: Load = %d after Add(0), want 0", m, got)
		}
		if m == ModeCombining && c.f.pending.Load() != 0 {
			t.Fatalf("%v: Add(0) deposited", m)
		}
	}
}

// TestCounterShardedSumExact: sharded-mode Adds are never lost; Load
// reconciles them all.
func TestCounterShardedSumExact(t *testing.T) {
	c := NewCounter()
	forceSharded(t, c)
	const goroutines, iters = 16, 5000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != goroutines*iters {
		t.Fatalf("Load = %d, want %d", got, goroutines*iters)
	}
	// A second Load must not double-count reconciled cells.
	if got := c.Load(); got != goroutines*iters {
		t.Fatalf("second Load = %d, want %d", got, goroutines*iters)
	}
}

// TestCounterReturnsToCAS: a single writer plus reconciling Loads bring a
// sharded counter back to the CAS protocol without losing the count.
func TestCounterReturnsToCAS(t *testing.T) {
	c := NewCounter(WithEmptyLimit(3))
	forceSharded(t, c)
	c.Add(10) // lands in a cell
	total := int64(10)
	for i := 0; i < 10 && c.Stats().Mode != ModeCAS; i++ {
		c.Add(1)
		total++
		c.Load() // reconcile; observes ≤1 active cell
	}
	if c.Stats().Mode != ModeCAS {
		t.Fatal("single-writer loads did not return the counter to CAS mode")
	}
	if got := c.Load(); got != total {
		t.Fatalf("Load = %d after mode changes, want %d", got, total)
	}
	if c.Stats().Switches < 2 {
		t.Fatalf("switches = %d, want ≥ 2", c.Stats().Switches)
	}
}

// TestCounterConcurrentMixed hammers Add and Load across both protocols
// and forced switches; the final count must be exact. Run with -race.
func TestCounterConcurrentMixed(t *testing.T) {
	c := NewCounter(WithSpinFailLimit(1), WithEmptyLimit(1))
	const goroutines = 16
	iters := 3000
	if testing.Short() {
		iters = 800
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var lwg sync.WaitGroup
	lwg.Add(1)
	go func() { // reconciling reader, driving down-switch votes
		defer lwg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				c.Load()
				runtime.Gosched()
			}
		}
	}()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c.Add(1)
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("counter adds did not complete (livelock across mode switches?)")
	}
	close(stop)
	lwg.Wait()
	if got := c.Load(); got != goroutines*int64(iters) {
		t.Fatalf("Load = %d, want %d", got, goroutines*int64(iters))
	}
}

// TestCounterAddLoadMixStaysOffCombining runs the mix that used to park
// a default Counter in its slowest protocol: oversubscribed adders that
// each reconcile every 64 ops. Every Load sweeps cells that all have
// writers — the wide fan-in that promoted sharded → combining — so the
// counter must end in CAS or sharded mode, with an exact total and no
// Load below its caller's own completed adds.
func TestCounterAddLoadMixStaysOffCombining(t *testing.T) {
	var c Counter
	goroutines := 4 * runtime.GOMAXPROCS(0)
	iters := 40000
	if testing.Short() {
		iters = 10000
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 1; i <= iters; i++ {
				c.Add(1)
				if i%64 == 0 {
					if got := c.Load(); got < int64(i) {
						t.Errorf("goroutine %d: Load = %d after %d completed adds of its own", g, got, i)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if got, want := c.Load(), int64(goroutines)*int64(iters); got != want {
		t.Fatalf("Load = %d, want %d", got, want)
	}
	if st := c.Stats(); st.Mode == ModeCombining {
		t.Fatalf("Stats = %+v: detection promoted into the combining protocol", st)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCounterLoadRacesModeSwitches pins the reconciliation/consensus
// race: goroutines hammer Add while a forcer flips the counter across
// every edge of the fetch-op transition chain and a dedicated reader
// drives reconciling Loads the whole time, under the race detector when
// enabled. A Load racing a sharded→CAS (or combining→sharded) commit
// must neither lose a cell's pending delta nor double-count one, and no
// Add may strand; the timeout guard matches the PR 2 stress pattern.
func TestCounterLoadRacesModeSwitches(t *testing.T) {
	c := NewCounter()
	const goroutines = 16
	iters := 4000
	if testing.Short() {
		iters = 1000
	}
	stop := make(chan struct{})
	var aux sync.WaitGroup
	aux.Add(2)
	go func() { // forcer: walk the transition chain in both directions
		defer aux.Done()
		edges := []struct{ from, to modal.Mode }{
			{fCAS, fSharded}, {fSharded, fCAS},
			{fSharded, fCombining}, {fCombining, fSharded},
		}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			e := edges[i%len(edges)]
			c.f.switchFop(e.from, e.to)
			time.Sleep(20 * time.Microsecond)
		}
	}()
	var lastSeen atomic.Int64
	go func() { // reconciling reader racing the commits
		defer aux.Done()
		for {
			select {
			case <-stop:
				return
			default:
				v := c.Load()
				if prev := lastSeen.Load(); v < prev {
					t.Errorf("Load went backwards under monotone Adds: %d after %d", v, prev)
					return
				} else {
					lastSeen.Store(v)
				}
				runtime.Gosched()
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c.Add(1)
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		close(stop)
		t.Fatal("stranded adder: Adds did not complete across forced mode switches")
	}
	close(stop)
	aux.Wait()
	if got := c.Load(); got != goroutines*int64(iters) {
		t.Fatalf("Load = %d, want %d", got, goroutines*int64(iters))
	}
}

// TestCounterSwitchesUnderContention: real contention drives the counter
// into the sharded protocol through the production Add path.
func TestCounterSwitchesUnderContention(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs ≥ 2 CPUs to generate CAS contention")
	}
	c := NewCounter(WithSpinFailLimit(1))
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 2*runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					c.Add(1)
				}
			}
		}()
	}
	deadline := time.After(3 * time.Second)
	for c.Stats().Mode != ModeSharded {
		select {
		case <-deadline:
			close(stop)
			wg.Wait()
			t.Skip("CAS contention never detected on this host")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	close(stop)
	wg.Wait()
	if c.Stats().Switches == 0 {
		t.Fatal("no protocol switches recorded")
	}
}

// TestCounterOscillationPromotes: a contended counter whose value never
// leaves a small range — an in-flight gauge, every goroutine adding 1
// and then -1 — still switches to sharded at the default limit, because
// the probe is sampled by a random draw, not by the count's value.
func TestCounterOscillationPromotes(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs ≥ 2 CPUs to generate update contention")
	}
	c := NewCounter()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 2*runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := 0; i < 64; i++ {
					c.Add(1)
					c.Add(-1)
				}
			}
		}()
	}
	deadline := time.After(10 * time.Second)
	promoted := true
	for promoted && c.Stats().Mode != ModeSharded {
		select {
		case <-deadline:
			promoted = false
		default:
			time.Sleep(time.Millisecond)
		}
	}
	close(stop)
	wg.Wait()
	if !promoted {
		t.Fatalf("contended ±1 oscillation never left ModeCAS: %+v", c.Stats())
	}
	if got := c.Load(); got != 0 {
		t.Fatalf("Load = %d after balanced adds, want 0", got)
	}
}

// TestCounterInjectedPolicy: an always-switch policy moves the counter to
// sharded on the first contended Add, and back to CAS on the first
// single-writer Load.
func TestCounterInjectedPolicy(t *testing.T) {
	c := NewCounter(WithPolicy(policy.AlwaysSwitch{}))
	c.f.observe(fCAS, modal.Busy)
	if c.Stats().Mode != ModeSharded {
		t.Fatal("always-switch policy did not switch on first contended Add")
	}
	c.Add(1)
	c.Load()
	if c.Stats().Mode != ModeCAS {
		t.Fatal("always-switch policy did not switch back on single-writer Load")
	}
}
