package main

import (
	"math"
	"regexp"
	"testing"
	"time"

	"repro/internal/stats"
)

func TestQuantileAndSummary(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.1, 1.4}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("quantile sorted its argument in place")
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
	s := summarize(xs)
	if s.Median != 3 || s.Q1 != 2 || s.Q3 != 4 || s.N != 5 || s.Mid != 3 {
		t.Errorf("summarize = %+v", s)
	}
	if got := s.iqrPct(); math.Abs(got-100*2.0/3) > 1e-9 {
		t.Errorf("iqrPct = %v", got)
	}
}

func TestMidmean(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 800}, 4.5},        // middle four; the outlier is trimmed
		{[]float64{5, 5, 5, 100, 100, 100, 100, 5}, 52.5}, // two groups: moves with their shares
		{[]float64{5, 5, 5, 5, 5, 100, 100, 100}, 28.75},  // 3 of the middle 4 in the low group
		{[]float64{1, 2, 3, 4, 5}, 3},                     // n=5: weights .75 1 .75 on 2 3 4
	} {
		if got := midmean(c.xs); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("midmean(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestGeomeanSkipsCellsWithoutARatio(t *testing.T) {
	g, n := geomean([]float64{2, 8, 0, math.Inf(1), -1})
	if n != 2 || math.Abs(g-4) > 1e-12 {
		t.Errorf("geomean = %v over %d, want 4 over 2", g, n)
	}
	if g, n := geomean(nil); g != 0 || n != 0 {
		t.Errorf("geomean(nil) = %v, %d", g, n)
	}
}

// One seed must give byte-identical inputs on every run, and another seed
// different ones: op streams, request streams and the simulator's base.
func TestSeedDiscipline(t *testing.T) {
	for _, rg := range regimes {
		digest := func(seed uint64) [3]uint64 {
			return [3]uint64{
				streamDigest(genStreams(seed, "map", 4, rg.kv)),
				streamDigest(genRequests(seed, 4, rg.svc)),
				simBaseSeed(seed),
			}
		}
		a, b, c := digest(1), digest(1), digest(2)
		if a != b {
			t.Errorf("%s: seed 1 drew different inputs twice: %v vs %v", rg.name, a, b)
		}
		for i := range a {
			if a[i] == c[i] {
				t.Errorf("%s: input %d is the same under seed 1 and seed 2", rg.name, i)
			}
		}
	}
	if streamDigest(genStreams(1, "map", 2, mix{})) == streamDigest(genStreams(1, "counter", 2, mix{})) {
		t.Error("two primitives share one op stream")
	}
}

func TestMixProportions(t *testing.T) {
	s := genStreams(7, "map", 1, mix{writePerMille: 495, auxPerMille: 10})[0]
	var n [3]int
	for _, op := range s {
		n[opKind(op)]++
	}
	if w := float64(n[opWrite]) / streamLen; w < 0.45 || w > 0.54 {
		t.Errorf("write share %v, want about 0.495", w)
	}
	if a := float64(n[opAux]) / streamLen; a < 0.004 || a > 0.02 {
		t.Errorf("aux share %v, want about 0.01", a)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", ID: 0, Parent: -1, Track: 0, Start: 0, End: 100},
		{Name: "a", ID: 1, Parent: 0, Track: 0, Start: 10, End: 40},
		{Name: "b", ID: 2, Parent: 0, Track: 0, Start: 30, End: 60}, // overlaps a: the union counts once
		{Name: "c", ID: 3, Parent: 1, Track: 0, Start: 15, End: 20},
		{Name: "w", ID: 4, Parent: 0, Track: 1, Start: 0, End: 90}, // another track: not deducted from root
		{Name: "wc", ID: 5, Parent: 4, Track: 1, Start: 5, End: 15},
	}
	want := []int64{50, 25, 30, 5, 80, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestTracerDriverSelfTimesSumToWall(t *testing.T) {
	tr := newTracer()
	endRoot := tr.span("run")
	endA := tr.span("phase")
	ws := tr.workers(2)
	now := time.Now()
	parent := ws[1].add("svc.request", now, now.Add(50), -1, 7)
	ws[1].add("svc.Get", now, now.Add(30), parent, 7)
	tr.merge(ws)
	endA()
	endRoot()
	d := tr.doc()
	if d.WallNs <= 0 || d.DriverSelfNs != d.WallNs {
		t.Errorf("driver self times sum to %d, wall %d", d.DriverSelfNs, d.WallNs)
	}
	var get span
	for _, s := range d.Spans {
		if s.Name == "svc.Get" {
			get = s
		}
	}
	if get.Track != 2 || d.Spans[get.Parent].Name != "svc.request" || get.Req != 7 {
		t.Errorf("worker span merged as %+v", get)
	}
	var nilTracer *tracer
	nilTracer.span("x")() // must not panic: untraced runs pass a nil tracer
	nilTracer.merge(nil)
}

func TestReactiveVsBestStatic(t *testing.T) {
	tb := &stats.Table{
		Header: []string{"procs", "test&set", "mcs-queue", "reactive"},
		Rows: [][]string{
			{"1", "20", "40", "30"}, // 30/20
			{"2", "0", "50", "100"}, // zero cell is no candidate: 100/50
			{"4", "0", "0", "10"},   // no static left: skipped
			{"8", "10", "20", "0"},  // reactive 0: skipped
		},
	}
	got := reactiveVsBestStatic(tb)
	if len(got) != 2 || got[0] != 1.5 || got[1] != 2 {
		t.Errorf("ratios = %v, want [1.5 2]", got)
	}
}

func TestDigestCheck(t *testing.T) {
	for _, rg := range regimes {
		d, err := committedDigest(rg.name)
		if err != nil || len(d) != 64 {
			t.Errorf("committed digest for %s = %q, %v", rg.name, d, err)
		}
	}
	want, _ := committedDigest("uncontended")
	same := []simRep{{digest: want}, {digest: want}, {digest: want}}
	var tl tally
	if ok, known := digestCheck("uncontended", 1, same, &tl); !ok || !known || tl.failed != 0 {
		t.Errorf("matching digests: ok=%v known=%v failed=%d", ok, known, tl.failed)
	}
	if ok, known := digestCheck("uncontended", 2, []simRep{{digest: "x"}, {digest: "x"}}, &tl); !ok || known {
		t.Errorf("other seeds have no committed digest: ok=%v known=%v", ok, known)
	}
	tl = tally{}
	if ok, _ := digestCheck("uncontended", 2, []simRep{{digest: "x"}, {digest: "y"}}, &tl); ok || tl.failed != 1 {
		t.Errorf("differing repetitions passed: failed=%d", tl.failed)
	}
	tl = tally{}
	if ok, _ := digestCheck("uncontended", 1, []simRep{{digest: "x"}, {digest: "x"}}, &tl); ok || tl.failed != 1 {
		t.Errorf("a digest other than the committed one passed at seed 1: failed=%d", tl.failed)
	}
}

func TestJudge(t *testing.T) {
	lower := boundedMetric{Name: "x_ns", Better: "lower", Bound: 0.10}
	higher := boundedMetric{Name: "x_per_s", Better: "higher", Bound: 0.10}
	tight := func(m float64) summary { return summary{Mid: m, Median: m, Q1: m * 0.99, Q3: m * 1.01, N: 10} }
	for _, c := range []struct {
		m    boundedMetric
		a, b summary
		want verdict
	}{
		{lower, tight(100), tight(105), within},
		{lower, tight(100), tight(115), outside},
		{lower, tight(100), tight(80), within},
		{higher, tight(100), tight(85), outside},
		{higher, tight(100), tight(120), within},
		{lower, tight(100), summary{Median: 115, Q1: 100, Q3: 130, N: 10}, unresolved},
	} {
		if got := judge(c.m, c.a, c.b); got.Verdict != c.want {
			t.Errorf("judge(%s, %v -> %v) = %s (worse %.1f%%, spread %.1f%%), want %s",
				c.m.Name, c.a.Median, c.b.Median, got.Verdict, got.WorsePct, got.SpreadPct, c.want)
		}
	}
}

// BENCHMARK.json and the binary must name the same metrics with the same
// units, and stay inside the contract's limits.
func TestBenchmarkJSONMatchesTheBinary(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkNames := func(kind string, got []boundedMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the binary prints %d", kind, len(got), len(want))
		}
		for i := 0; i < min(len(got), len(want)); i++ {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the binary prints %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
		for _, m := range got {
			if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || seen[m.Name] {
				t.Errorf("%s: %q (%q) breaks the naming rules or repeats", kind, m.Name, m.Unit)
			}
			seen[m.Name] = true
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: %s has better=%q", kind, m.Name, m.Better)
			}
		}
	}
	checkNames("end_to_end", spec.EndToEnd, endToEnd)
	checkNames("per_layer", spec.PerLayer, perLayer())
	if len(spec.EndToEnd) > 16 || len(spec.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed 16 and 128", len(spec.EndToEnd), len(spec.PerLayer))
	}
	hasSetup := false
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range spec.PerLayer {
		if m.Bound != 0 {
			t.Errorf("per-layer %s carries a bound", m.Name)
		}
	}
	if len(spec.Workloads) != len(regimes) {
		t.Fatalf("BENCHMARK.json has %d workloads, the binary %d", len(spec.Workloads), len(regimes))
	}
	for i, w := range spec.Workloads {
		if w.Name != regimes[i].name || !nameRE.MatchString(w.Name) || len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %d: %q / why of %d chars, binary has %q", i, w.Name, len(w.Why), regimes[i].name)
		}
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", spec.Paths)
	}
	runs := 4 + 22*len(spec.Workloads)
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 || runs*(spec.RunSeconds+8) > 3420-240 {
		t.Errorf("run_seconds %d: %d runs with ~8 s of set-up and checks each, plus two builds, do not fit 3420 s", spec.RunSeconds, runs)
	}
}

// The output checks must pass on a correct run and must be able to fail.
func TestCellsRunAndChecksHaveTeeth(t *testing.T) {
	for _, rg := range regimes {
		var tl tally
		cells := buildCells(rg, 1, 2)
		cr := newCellRun(cells, 2)
		cr.round(2*time.Millisecond, true, nil, &tl)
		res := cr.finish(&tl)
		if tl.failed != 0 || tl.attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d", rg.name, tl.attempted, tl.failed)
		}
		for _, p := range res {
			if p.Impls[0].NsOp.Mid <= 0 || p.VsStatic <= 0 {
				t.Errorf("%s/%s: ns/op %v, vs static %v", rg.name, p.Prim, p.Impls[0].NsOp.Mid, p.VsStatic)
			}
		}
		svc := newSvcPhase(1, 2, rg.svc)
		svc.warm()
		s := svc.slice(5*time.Millisecond, nil, &tl)
		svc.check(&tl)
		if tl.failed != 0 || s.reqPerS <= 0 || s.samples == 0 {
			t.Errorf("%s service: %+v, failed %d", rg.name, s, tl.failed)
		}
		svc.total++ // a request the service never saw
		svc.check(&tl)
		if tl.failed != 1 {
			t.Errorf("%s: a miscounted request went unnoticed", rg.name)
		}
	}
	kvm := &mutexMapKV{m: make(map[uint64]uint64)}
	im := mapImpl("mutex+map", 2, kvm, func(ls []mapLane) batchFn {
		return func(id int, ops []uint32) {
			for _, op := range ops {
				if opKind(op) == opWrite {
					kvm.put(ls[id].nextPut(uint64(opArg(op))))
				} else {
					kvm.del(ls[id].nextDel(uint64(opArg(op))))
				}
			}
		}
	})
	im.batch(0, genStreams(1, "map", 1, mix{writePerMille: 500, auxPerMille: 500})[0])
	if err := im.check(); err != nil {
		t.Errorf("correct map failed its check: %v", err)
	}
	kvm.put(3, 999) // a write the owner of key 3 never made
	if im.check() == nil {
		t.Error("a lost last write went unnoticed")
	}
}
