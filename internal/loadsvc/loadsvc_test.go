package loadsvc

import (
	"context"
	"encoding/json"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

// shortOpts are the bounded options every test runs under: a fraction
// of a second of scheduled arrivals so the whole file stays
// seconds-scale even with -race.
func shortOpts(t *testing.T) Options {
	o := Options{Duration: 300 * time.Millisecond, Seed: 7}
	if testing.Short() {
		o.Duration = 150 * time.Millisecond
	}
	t.Helper()
	return o
}

// TestPlanDeterministic pins the registry-derived-seed idiom: the same
// (seed, scenario) always materializes the identical request schedule,
// and different scenarios or seeds diverge.
func TestPlanDeterministic(t *testing.T) {
	o := Options{Duration: 200 * time.Millisecond, Seed: 42}
	for _, sc := range Scenarios() {
		a := BuildPlan(sc, o)
		b := BuildPlan(sc, o)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two plans from the same options differ", sc.Name)
		}
		if len(a.Reqs) == 0 {
			t.Errorf("%s: empty plan", sc.Name)
		}
		other := o
		other.Seed = 43
		if reflect.DeepEqual(a, BuildPlan(sc, other)) {
			t.Errorf("%s: different seeds produced the same plan", sc.Name)
		}
	}
}

// TestLiveReadHeavy drives the real service open-loop for a fraction of
// a second: every scheduled request must be accounted for, the
// service-side Counter must agree with the executor's accounting, and
// the fleet must drain without tripping the stranded-waiter guard.
func TestLiveReadHeavy(t *testing.T) {
	o := shortOpts(t)
	o.Rate = 1000
	sc, _ := Lookup("read-heavy")
	rep, err := Run(sc, o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.LostWaiters != 0 {
		t.Fatalf("lost waiters: %d", rep.LostWaiters)
	}
	want := int64(len(BuildPlan(sc, o).Reqs))
	if rep.Requests != want {
		t.Errorf("accounted %d requests, plan scheduled %d", rep.Requests, want)
	}
	if rep.HitCount != want {
		t.Errorf("service hit counter %d, want %d (every request bumps it exactly once)",
			rep.HitCount, want)
	}
	if rep.Errors != 0 {
		t.Errorf("%d unexpected request errors", rep.Errors)
	}
	var observed uint64
	for _, c := range rep.Hist.Buckets {
		observed += c
	}
	if observed == 0 || rep.P99Us <= 0 {
		t.Error("no latency observations")
	}
	if rep.PeakLatencyNs <= 0 {
		t.Error("max-aggregating FetchOp saw no latencies")
	}
	if len(rep.Primitives) != 4 {
		t.Errorf("scraped %d primitive deltas, want 4 (router/journal/hits/peak)", len(rep.Primitives))
	}
	if _, ok := rep.Primitives["router"]; !ok {
		t.Error("router missing from scraped telemetry")
	}
}

// TestLiveCancellationStorm is the acceptance property: the storm
// cancels a nonzero fraction of requests and strands no waiter — every
// worker drains within the guard even though cancellations race lock
// handoffs the whole run.
func TestLiveCancellationStorm(t *testing.T) {
	o := shortOpts(t)
	o.Rate = 1500
	sc, _ := Lookup("cancellation-storm")
	rep, err := Run(sc, o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.LostWaiters != 0 {
		t.Fatalf("lost waiters: %d", rep.LostWaiters)
	}
	if rep.Cancelled == 0 {
		t.Error("cancellation storm cancelled nothing (pre-cancelled clients alone guarantee > 0)")
	}
	if rep.Requests != rep.Fresh+rep.Stale+rep.Cancelled+rep.Errors {
		t.Error("outcome classes do not partition the requests")
	}
}

// TestLiveChurnSpawnsWorkers checks the churn scenario actually turns
// worker goroutines over: strictly more goroutine bodies than lanes.
func TestLiveChurnSpawnsWorkers(t *testing.T) {
	o := shortOpts(t)
	o.Rate = 1500
	o.Workers = 4
	sc, _ := Lookup("goroutine-churn")
	rep, err := Run(sc, o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.LostWaiters != 0 {
		t.Fatalf("lost waiters: %d", rep.LostWaiters)
	}
	if rep.WorkersSpawned <= int64(o.Workers) {
		t.Errorf("churn spawned %d goroutine bodies for %d lanes; expected turnover",
			rep.WorkersSpawned, o.Workers)
	}
}

// TestLiveSweep runs both multi-variant scenarios end to end: one
// sub-row per variant, tagged with what the variant set, the sub-rows'
// requests summing to the merged report's, and GOMAXPROCS restored.
func TestLiveSweep(t *testing.T) {
	for _, name := range []string{"gomaxprocs-sweep", "map-read-heavy"} {
		t.Run(name, func(t *testing.T) {
			prev := runtime.GOMAXPROCS(0)
			o := shortOpts(t)
			o.Rate = 1000
			sc, _ := Lookup(name)
			rep, err := Run(sc, o)
			if err != nil {
				t.Fatal(err)
			}
			if got := runtime.GOMAXPROCS(0); got != prev {
				t.Fatalf("run leaked GOMAXPROCS=%d (was %d)", got, prev)
			}
			if rep.LostWaiters != 0 {
				t.Fatalf("lost waiters: %d", rep.LostWaiters)
			}
			if len(rep.Sub) != len(sc.Variants) {
				t.Fatalf("%d sub-reports for %d variants", len(rep.Sub), len(sc.Variants))
			}
			var subTotal int64
			for i, s := range rep.Sub {
				v := sc.Variants[i]
				wantMode := ""
				if v.RouterMode != 0 {
					wantMode = v.RouterMode.String()
				}
				if s.Procs != v.Procs || s.Mode != wantMode {
					t.Errorf("sub-row %d tagged procs=%d mode=%q, variant is %+v", i, s.Procs, s.Mode, v)
				}
				subTotal += s.Requests
			}
			if subTotal != rep.Requests {
				t.Errorf("sub-report requests sum to %d, merged report says %d", subTotal, rep.Requests)
			}
		})
	}
}

// TestSweepGuardTripIsReported strands the sweep's second slice for
// real — its plan opens with a rebuild that outlasts the guard, so the
// puts queued behind it keep their lanes blocked — and checks that the
// report returned with the stranded-waiter error says so: lost waiters
// counted, the slice that completed before the trip merged, quantiles
// derived from it. (The loop used to return before merging, so such a
// run printed zero requests and zero lost waiters beside its error.)
func TestSweepGuardTripIsReported(t *testing.T) {
	o := shortOpts(t)
	o.Rate = 1000
	o.Guard = 50 * time.Millisecond
	sc, _ := Lookup("gomaxprocs-sweep")
	draw, plans := sc.Draw, 0
	sc.Draw = func(at time.Duration, rng *sim.Rand) Req {
		r := draw(at, rng)
		if at == 0 {
			if plans++; plans == 2 {
				// ~0.3 s of yielding spin here; past slice + guard on any host.
				return Req{Kind: OpRebuild, Work: 200_000_000}
			}
		}
		return r
	}
	rep, err := Run(sc, o)
	if err == nil {
		t.Fatal("a rebuild outlasting the guard did not trip it")
	}
	if rep.LostWaiters == 0 {
		line, _, _ := strings.Cut(err.Error(), "\n") // the rest is a goroutine dump
		t.Errorf("guard tripped but the report counts no lost waiters: %s", line)
	}
	if len(rep.Sub) != 2 {
		t.Skipf("the trip came in slice %d, not the stalled second one (loaded host?)", len(rep.Sub))
	}
	if rep.Requests == 0 || rep.Requests != rep.Sub[0].Requests || rep.P50Us <= 0 || rep.P99Us < rep.P50Us {
		t.Errorf("first slice completed %d requests, report has requests=%d p50=%v p99=%v",
			rep.Sub[0].Requests, rep.Requests, rep.P50Us, rep.P99Us)
	}
}

// TestWriteBurstStaleReads drives the burst scenario long enough for at
// least one bulk rebuild to hold the write lock past read deadlines.
// Whether a particular read blows its deadline is timing-dependent, so
// this asserts only the plumbing: stale reads are counted when they
// happen and never outnumber completions.
func TestWriteBurstStaleReads(t *testing.T) {
	o := shortOpts(t)
	o.Rate = 1500
	sc, _ := Lookup("write-burst")
	rep, err := Run(sc, o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.LostWaiters != 0 {
		t.Fatalf("lost waiters: %d", rep.LostWaiters)
	}
	if rep.Stale > rep.Fresh+rep.Stale {
		t.Error("stale count exceeds completions")
	}
	if rep.StaleRate < 0 || rep.StaleRate > 1 {
		t.Errorf("stale rate %f out of range", rep.StaleRate)
	}
}

// TestTailDoc pins the bench_tail/v2 layout: the schema tag and one
// "scenarios" entry per report, nothing flattened beside them.
func TestTailDoc(t *testing.T) {
	var reports []*Report
	for _, sc := range Scenarios() {
		rep := newReport(sc.Name, Options{}.withDefaults(sc))
		rep.finish()
		reports = append(reports, rep)
	}
	data, err := json.Marshal(TailDoc{Schema: TailSchema, Scenarios: reports})
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if string(doc["schema"]) != `"bench_tail/v2"` {
		t.Errorf("schema %s, want \"bench_tail/v2\"", doc["schema"])
	}
	if _, ok := doc["tail"]; ok || len(doc) != 2 {
		t.Errorf("document keys are not exactly schema + scenarios: %s", data)
	}
	var rows []struct {
		Scenario string   `json:"scenario"`
		P99Us    *float64 `json:"p99_us"`
	}
	if err := json.Unmarshal(doc["scenarios"], &rows); err != nil {
		t.Fatal(err)
	}
	names := ScenarioNames()
	if len(rows) != len(names) {
		t.Fatalf("%d scenarios entries for %d specs", len(rows), len(names))
	}
	for i, row := range rows {
		if row.Scenario != names[i] || row.P99Us == nil {
			t.Errorf("entry %d is %q (p99_us present: %v), want %q with quantiles", i, row.Scenario, row.P99Us != nil, names[i])
		}
	}
}

// TestReportArithmetic drives absorb, merge and finish from hand-built
// tallies — the report arithmetic with no service and no clock under it.
func TestReportArithmetic(t *testing.T) {
	o := Options{}.withDefaults(Spec{DefaultRate: 100})
	// slice builds one variant's finished report from per-lane tallies,
	// each a list of (class, latency ns) observations.
	type obs struct {
		class int
		ns    int64
	}
	slice := func(switches uint64, lanes ...[]obs) *Report {
		r := newReport("arith", o)
		for _, lane := range lanes {
			tl := &tally{spawned: 1}
			for _, ob := range lane {
				tl.record(ob.class, ob.ns)
			}
			r.absorb(tl)
		}
		r.Primitives = map[string]PrimitiveDelta{"router": {Mode: "sharded", Switches: switches}}
		r.finish()
		return r
	}
	a := slice(3,
		[]obs{{classFresh, 1000}, {classFresh, 2000}, {classStale, 4000}, {classCancelled, 9e9}},
		[]obs{{classFresh, 3000}, {classError, 0}})
	b := slice(4, []obs{{classFresh, 500}, {classStale, 250_000}, {classCancelled, 0}})
	b.LostWaiters = 2

	if a.Requests != 6 || a.Fresh != 3 || a.Stale != 1 || a.Cancelled != 1 || a.Errors != 1 || a.WorkersSpawned != 2 {
		t.Errorf("absorbed counts wrong: %+v", a)
	}
	if a.MaxUs != 4 {
		t.Errorf("a.MaxUs = %v, want 4 (a cancelled request's latency is not a completion)", a.MaxUs)
	}

	m := newReport("arith", o)
	m.merge(a)
	m.merge(b)
	m.finish()
	if m.Requests != a.Requests+b.Requests || m.Requests != m.Fresh+m.Stale+m.Cancelled+m.Errors {
		t.Errorf("merged requests %d do not sum the slices (%d + %d) or the classes", m.Requests, a.Requests, b.Requests)
	}
	if m.CancelledRate != float64(m.Cancelled)/float64(m.Requests) || m.StaleRate != float64(m.Stale)/float64(m.Requests) {
		t.Errorf("rates %v / %v do not derive from counts %d, %d of %d", m.CancelledRate, m.StaleRate, m.Cancelled, m.Stale, m.Requests)
	}
	if m.MaxUs != 250 || m.MaxUs != max(a.MaxUs, b.MaxUs) {
		t.Errorf("merged MaxUs = %v, want 250: the larger slice's max, in µs", m.MaxUs)
	}
	for _, r := range []*Report{a, b, m} {
		if !(0 < r.P50Us && r.P50Us <= r.P99Us && r.P99Us <= r.P999Us && r.P999Us <= r.MaxUs) {
			t.Errorf("quantiles not monotone: p50=%v p99=%v p999=%v max=%v", r.P50Us, r.P99Us, r.P999Us, r.MaxUs)
		}
	}
	if got := m.Primitives["router"].Switches; got != 7 {
		t.Errorf("router switches %d, want 3+4 summed across variants", got)
	}
	if m.LostWaiters != 2 || m.WorkersSpawned != 3 {
		t.Errorf("lost=%d spawned=%d, want 2 and 3", m.LostWaiters, m.WorkersSpawned)
	}
	// finish derives from the accumulators, so it can run again.
	before := *m
	m.finish()
	if m.MaxUs != before.MaxUs || m.P99Us != before.P99Us || m.Requests != before.Requests {
		t.Errorf("second finish moved the report: max %v→%v", before.MaxUs, m.MaxUs)
	}
}

// TestServiceDirect exercises the service API without the driver: fresh
// and stale reads, journal writes, rebuilds, and pre-cancelled requests.
func TestServiceDirect(t *testing.T) {
	s := NewService()
	ctx := context.Background()

	res, err := s.Get(ctx, 3, 10)
	if err != nil || res.Stale {
		t.Fatalf("plain get: %+v, %v", res, err)
	}
	if err := s.Put(ctx, 3, 99, 10); err != nil {
		t.Fatal(err)
	}
	res, err = s.Get(ctx, 3, 10)
	if err != nil || res.Val != 99 {
		t.Fatalf("get after put: %+v, %v", res, err)
	}
	if err := s.Rebuild(ctx, 5, 10); err != nil {
		t.Fatal(err)
	}
	if res, _ = s.Get(ctx, 3, 10); res.Val != 3*3+5 {
		t.Fatalf("get after rebuild: %+v", res)
	}

	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := s.Get(cancelled, 1, 10); err == nil {
		t.Fatal("pre-cancelled get should fail")
	}
	if err := s.Put(cancelled, 1, 2, 10); err == nil {
		t.Fatal("pre-cancelled put should fail")
	}
	if n := s.JournalLen(); n != 1 {
		t.Fatalf("journal length %d, want 1 (only the successful put commits)", n)
	}
	if s.Hits() != 7 {
		t.Fatalf("hit counter %d, want 7 (every request counted, even cancelled)", s.Hits())
	}
	s.RecordLatency(1234)
	s.RecordLatency(99)
	if s.PeakLatency() != 1234 {
		t.Fatalf("peak %d", s.PeakLatency())
	}
}
