package experiments

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/spinlock"
	"repro/internal/stats"
	"repro/internal/threads"
	"repro/internal/waiting"
)

func TestBaselineShapeSpinLocks(t *testing.T) {
	// The Figure 3.15 crossover: TTS wins at 1 processor, MCS wins at 16;
	// the reactive lock tracks the winner within a modest factor at both
	// extremes.
	iters := 30
	tts1 := LockOverhead("test&test&set", 32, 1, iters)
	mcs1 := LockOverhead("mcs-queue", 32, 1, iters)
	re1 := LockOverhead("reactive", 32, 1, iters)
	if !(tts1 < mcs1) {
		t.Errorf("P=1: tts %d should beat mcs %d", tts1, mcs1)
	}
	if float64(re1) > 1.5*float64(tts1) {
		t.Errorf("P=1: reactive %d too far above tts %d", re1, tts1)
	}
	tts16 := LockOverhead("test&test&set", 32, 16, iters)
	mcs16 := LockOverhead("mcs-queue", 32, 16, iters)
	re16 := LockOverhead("reactive", 32, 16, iters)
	if !(mcs16 < tts16) {
		t.Errorf("P=16: mcs %d should beat tts %d", mcs16, tts16)
	}
	if float64(re16) > 1.6*float64(mcs16) {
		t.Errorf("P=16: reactive %d too far above mcs %d", re16, mcs16)
	}
}

// TestLockOverheadPinned pins the default-seed readings of the reactive
// lock on the Figure 3.15 loop (LockOverhead is what benchmark/'s
// core.lockoverhead_reactive_32p row times): a change to the shared
// contention loop or the catalog that moved them would move every
// fixed-seed caller.
func TestLockOverheadPinned(t *testing.T) {
	for _, tc := range []struct {
		procs int
		want  Time
	}{{1, 62}, {2, 107}, {4, 105}, {8, 95}, {16, 95}, {32, 95}} {
		if tc.procs > 4 && testing.Short() {
			continue
		}
		if got := LockOverhead("reactive", 32, tc.procs, 25); got != tc.want {
			t.Errorf("LockOverhead(reactive, 32, %d, 25) = %d simulated cycles, want %d", tc.procs, got, tc.want)
		}
	}
}

// TestProtocolListsMatchConstructors: LockProtocols/FopProtocols list
// exactly what MakeLock/MakeFop construct — every listed name builds a
// working object on a 4-node machine (one operation per processor), and
// a name off the list panics rather than falling back to some default.
func TestProtocolListsMatchConstructors(t *testing.T) {
	if !slices.Contains(LockProtocols(), "reactive-nonoptimistic") {
		t.Errorf("LockProtocols() = %v omits reactive-nonoptimistic, which MakeLock constructs", LockProtocols())
	}
	if l := MakeLock(seedOnly().NewMachine(4, nil), "reactive-nonoptimistic", 0).(*core.ReactiveLock); l.Optimistic {
		t.Error("reactive-nonoptimistic built an optimistic lock")
	}
	for _, name := range LockProtocols() {
		m := seedOnly().NewMachine(4, nil)
		l := MakeLock(m, name, 3)
		held := 0
		ContentionLoop(m, 4, 1, func(c *machine.CPU) {
			h := l.Acquire(c)
			if held++; held != 1 {
				t.Errorf("lock %s: %d holders", name, held)
			}
			c.Advance(10)
			held--
			l.Release(c, h)
		}, uniformThink)
	}
	for _, name := range FopProtocols() {
		m := seedOnly().NewMachine(4, nil)
		f := MakeFop(m, name, 4)
		var sum uint64
		ContentionLoop(m, 4, 1, func(c *machine.CPU) { sum += f.FetchAdd(c, 1) }, uniformThink)
		if sum != 0+1+2+3 {
			t.Errorf("fop %s: fetched values sum to %d, want 6", name, sum)
		}
	}
	for _, mk := range []func(){
		func() { MakeLock(seedOnly().NewMachine(4, nil), "mcs", 0) },
		func() { MakeFop(seedOnly().NewMachine(4, nil), "mcs-queue", 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("constructing an unlisted protocol name should panic")
				}
			}()
			mk()
		}()
	}
}

// TestFigureColumnsAreCatalogNames: the protocol columns of Figures
// 3.15, 3.16 and 3.26 are headed by the catalog names they were selected
// by — a column picked by position could drift from its header.
func TestFigureColumnsAreCatalogNames(t *testing.T) {
	known := map[string][]string{
		"fig3.15-spinlocks": LockProtocols(),
		"fig3.15-fetchop":   FopProtocols(),
		"fig3.16-prototype": LockProtocols(),
		"fig3.26-messages":  append(LockProtocols(), FopProtocols()...),
	}
	for _, res := range parallelMatrix() {
		names, ok := known[res.Spec.Name]
		if !ok {
			continue
		}
		delete(known, res.Spec.Name)
		if res.Err != nil {
			t.Fatalf("%s: %v", res.Spec.Name, res.Err)
		}
		for _, h := range res.Table.Header[1:] {
			if !slices.Contains(names, h) {
				t.Errorf("%s: column %q is not a catalog name (%v)", res.Spec.Name, h, names)
			}
		}
	}
	for name := range known {
		t.Errorf("%s did not run", name)
	}
}

func TestBaselineShapeFetchOp(t *testing.T) {
	// Figure 3.15 right: lock-based wins at P=1; the combining tree wins at
	// P=32; the reactive algorithm is near the winner at both.
	iters := 25
	lockBased, tree, reactive := fopCatalog.named("tts-lock"), fopCatalog.named("combining-tree"), fopCatalog.named("reactive")
	l1 := fopOverhead(seedOnly(), lockBased, 32, 1, iters)
	t1 := fopOverhead(seedOnly(), tree, 32, 1, iters)
	r1 := fopOverhead(seedOnly(), reactive, 32, 1, iters)
	if !(l1 < t1) {
		t.Errorf("P=1: lock-based %d should beat tree %d", l1, t1)
	}
	if float64(r1) > 2*float64(l1) {
		t.Errorf("P=1: reactive %d too far above lock-based %d", r1, l1)
	}
	// Longer run at P=32 so the reactive algorithm's TTS→QUEUE→TREE
	// transition transient amortizes (the paper measures steady state).
	l32 := fopOverhead(seedOnly(), lockBased, 32, 32, iters)
	t32 := fopOverhead(seedOnly(), tree, 32, 32, 80)
	r32 := fopOverhead(seedOnly(), reactive, 32, 32, 80)
	if !(t32 < l32) {
		t.Errorf("P=32: tree %d should beat lock-based %d", t32, l32)
	}
	if float64(r32) > 1.6*float64(t32) {
		t.Errorf("P=32: reactive %d too far above tree %d", r32, t32)
	}
	// Between Figure 3.15's levels, where the claim is weakest (ROADMAP
	// item 8): at 12 contenders the queue wait sits at QueueWaitLimit and
	// the algorithm is late into the tree, at 24 it has switched and
	// still trails it. Hold it to 1.5x the better static protocol; a
	// derived switch point should tighten this bound.
	queueBased := fopCatalog.named("queue-lock")
	for _, p := range []int{12, 24} {
		best := min(fopOverhead(seedOnly(), queueBased, 32, p, 80), fopOverhead(seedOnly(), tree, 32, p, 80))
		r := fopOverhead(seedOnly(), reactive, 32, p, 80)
		t.Logf("P=%d: reactive %d, better of queue-lock and tree %d (%.2fx)", p, r, best, float64(r)/float64(best))
		if float64(r) > 1.5*float64(best) {
			t.Errorf("P=%d: reactive %d more than 1.5x the better static protocol %d", p, r, best)
		}
	}
}

func TestDirNNBAblation(t *testing.T) {
	// Figure 3.2: the full-map directory reduces TTS overhead at high
	// contention but TTS still scales poorly (stays above MCS).
	iters := 25
	limitless := LockOverhead("test&test&set", 32, 32, iters)
	fullmap := lockOverhead(seedOnly(), lockCatalog.named("test&test&set"), 32, 32, iters, uniformThink, func(cfg *machine.Config) {
		cfg.Mem.HWPointers = -1
	})
	if fullmap >= limitless {
		t.Errorf("full-map (%d) should reduce TTS overhead vs LimitLESS (%d)", fullmap, limitless)
	}
	mcs := LockOverhead("mcs-queue", 32, 32, iters)
	if fullmap <= mcs {
		t.Errorf("even full-map TTS (%d) should not beat MCS (%d) at 32 procs", fullmap, mcs)
	}
}

func TestMultiLockReactiveNearOptimal(t *testing.T) {
	// Section 3.5.3's headline: the reactive algorithm is within a small
	// factor of the simulated-optimal static assignment on mixed patterns.
	pat := Patterns()[0] // 1 lock x32 + 32 locks x1
	total := 2048
	uniformly := func(proto string) Time {
		return multiLockElapsed(seedOnly(), pat, total, func(m *machine.Machine, _, home int) spinlock.Lock {
			return MakeLock(m, proto, home)
		})
	}
	opt := multiLockElapsed(seedOnly(), pat, total, simulatedOptimal)
	re := uniformly("reactive")
	if float64(re) > 1.35*float64(opt) {
		t.Errorf("reactive %d vs optimal %d: more than 35%% off", re, opt)
	}
	// And the reactive lock beats at least one of the static choices.
	tas, mcs := uniformly("test&set"), uniformly("mcs-queue")
	if re > tas && re > mcs {
		t.Errorf("reactive %d worse than both static choices (tas %d, mcs %d)", re, tas, mcs)
	}
}

func TestTimeVaryingMixedContention(t *testing.T) {
	// Figure 3.21, 30-70%% contention band with long periods: the reactive
	// lock should beat or match both passive locks.
	elapsed := func(proto string) Time {
		return timeVaryElapsed(seedOnly(), lockCatalog.named(proto), 4096, 50, 3)
	}
	tas, mcs, re := elapsed("test&set"), elapsed("mcs-queue"), elapsed("reactive")
	worst := tas
	if mcs > worst {
		worst = mcs
	}
	if re >= worst {
		t.Errorf("reactive %d should beat the worst static choice (tas %d, mcs %d)", re, tas, mcs)
	}
}

func TestTablesRender(t *testing.T) {
	sz := Quick()
	sz.BaselineProcs = []int{1, 4}
	sz.BaselineIters = 10
	sz.MultiLockTotal = 1024
	sz.TimeVaryPeriods = 2
	for name, tab := range map[string]interface{ String() string }{
		"table4.1": Table4_1BlockingCost(),
		"fig4.4":   Fig4_4ExpFactors(),
		"fig4.5":   Fig4_5UniformFactors(),
	} {
		if !strings.Contains(tab.String(), " ") {
			t.Errorf("%s rendered empty", name)
		}
	}
}

func TestWaitTablesQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("wait tables are slow")
	}
	sz := Quick()
	out := Fig4_13Barrier(sz).String()
	if !strings.Contains(out, "jacobi-bar") || !strings.Contains(out, "cgrad") {
		t.Fatalf("barrier table:\n%s", out)
	}
	out = Fig4_14Mutex(sz).String()
	if !strings.Contains(out, "fibheap") {
		t.Fatalf("mutex table:\n%s", out)
	}
}

// TestWaitBenchTableInSync holds the Chapter 4 tables to the one
// waitBenches list: Figures 4.12-4.14 partition it, Table 4.6 is all of it
// in table order, and every profile caption names a row.
func TestWaitBenchTableInSync(t *testing.T) {
	firstColumn := func(tb *stats.Table) []string {
		var names []string
		for _, r := range tb.Rows {
			names = append(names, r[0])
		}
		return names
	}
	sz := Tiny()
	var all []string
	for _, b := range waitBenches {
		all = append(all, b.name)
	}
	var figures []string
	for _, tab := range []func(Sizes) *stats.Table{Fig4_12ProducerConsumer, Fig4_13Barrier, Fig4_14Mutex} {
		tb := tab(sz)
		if len(tb.Rows) == 0 {
			t.Error("a figure of 4.12-4.14 has no benchmark")
		}
		figures = append(figures, firstColumn(tb)...)
	}
	if !slices.Equal(figures, all) {
		t.Errorf("Figures 4.12-4.14 list %v, want each of %v once", figures, all)
	}
	if got := firstColumn(Table4_6HalfB(sz)); !slices.Equal(got, all) {
		t.Errorf("Table 4.6 lists %v, want %v", got, all)
	}
	for _, row := range waitProfileRows {
		if got := waitBenchNamed(row.bench).name; got != row.bench {
			t.Errorf("profile %q resolved to %q", row.caption, got)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("waitBenchNamed accepted an unknown name")
		}
	}()
	waitBenchNamed("no-such-benchmark")
}

func TestTwoPhaseNearBestInApps(t *testing.T) {
	// The thesis's robustness claim (Section 4.7.2): two-phase waiting is
	// close to the best static choice on each benchmark class. Verified on
	// the future-stream benchmark, where spin and block differ sharply.
	sz := Quick()
	bench := waitBenchNamed("future-stream")
	spin := bench.elapsed(sz, waiting.Spin())
	block := bench.elapsed(sz, waiting.Block())
	two := bench.elapsed(sz, waiting.TwoPhaseAlpha(0.54, threads.DefaultCosts()))
	best := spin
	if block < best {
		best = block
	}
	if float64(two) > 1.35*float64(best) {
		t.Errorf("2phase %d more than 35%% above best static %d (spin %d, block %d)", two, best, spin, block)
	}
}

func TestWaitProfilesProduceData(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles are slow")
	}
	sz := Quick()
	profs := WaitProfiles(sz)
	if len(profs) < 7 {
		t.Fatalf("only %d profiles", len(profs))
	}
	for _, p := range profs {
		if p.Sample.N() == 0 {
			t.Errorf("profile %q has no observations", p.Name)
		}
	}
}
