package loadsvc

import (
	"context"
	"reflect"
	"runtime"
	"testing"
	"time"
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

// TestVirtualRunDeterministic is the loadgen determinism guarantee: a
// seeded short-duration scenario replayed twice produces identical
// request counts, class tallies, and histogram bucket totals.
func TestVirtualRunDeterministic(t *testing.T) {
	o := shortOpts(t)
	o.Virtual = true
	for _, sc := range Scenarios() {
		a, err := Run(sc, o)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		b, err := Run(sc, o)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		if a.Requests == 0 {
			t.Errorf("%s: no requests", sc.Name)
		}
		if a.Requests != b.Requests || a.Fresh != b.Fresh || a.Stale != b.Stale ||
			a.Cancelled != b.Cancelled || a.Errors != b.Errors {
			t.Errorf("%s: request counts differ between identical virtual runs:\n%+v\nvs\n%+v",
				sc.Name, a, b)
		}
		if a.Hist.Buckets != b.Hist.Buckets {
			t.Errorf("%s: histogram bucket totals differ between identical virtual runs", sc.Name)
		}
		if a.P50Us != b.P50Us || a.P99Us != b.P99Us || a.P999Us != b.P999Us {
			t.Errorf("%s: quantiles differ between identical virtual runs", sc.Name)
		}
	}
}

// TestVirtualStormCancels checks the virtual classification path sees
// what the live one must: the cancellation storm cancels requests, the
// others mostly complete.
func TestVirtualStormCancels(t *testing.T) {
	o := shortOpts(t)
	o.Virtual = true
	sc, _ := Lookup("cancellation-storm")
	rep, err := Run(sc, o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cancelled == 0 {
		t.Error("virtual cancellation-storm cancelled nothing")
	}
	if rep.CancelledRate <= 0 {
		t.Error("cancelled rate not derived")
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

// TestLiveSweep runs the GOMAXPROCS sweep end to end (restoring the
// setting) and checks per-setting sub-rows plus merged accounting.
func TestLiveSweep(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	o := shortOpts(t)
	o.Rate = 1000
	sc, _ := Lookup("gomaxprocs-sweep")
	rep, err := Run(sc, o)
	if err != nil {
		t.Fatal(err)
	}
	if got := runtime.GOMAXPROCS(0); got != prev {
		t.Fatalf("sweep leaked GOMAXPROCS=%d (was %d)", got, prev)
	}
	if len(rep.Sub) != len(sc.Procs) {
		t.Fatalf("%d sub-reports for %d sweep settings", len(rep.Sub), len(sc.Procs))
	}
	var subTotal int64
	for _, s := range rep.Sub {
		subTotal += s.Requests
	}
	if subTotal != rep.Requests {
		t.Errorf("sub-report requests sum to %d, merged report says %d", subTotal, rep.Requests)
	}
	if rep.LostWaiters != 0 {
		t.Fatalf("lost waiters: %d", rep.LostWaiters)
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

// TestTailDoc pins the bench_tail/v1 row layout.
func TestTailDoc(t *testing.T) {
	o := shortOpts(t)
	o.Virtual = true
	var reports []*Report
	for _, sc := range Scenarios() {
		rep, err := Run(sc, o)
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, rep)
	}
	doc := BuildTailDoc(reports)
	if doc.Schema != TailSchema {
		t.Fatalf("schema %q", doc.Schema)
	}
	want := map[string]bool{}
	for _, name := range ScenarioNames() {
		for _, q := range []string{"p50", "p99", "p999", "max"} {
			want[name+"/"+q] = true
		}
	}
	got := map[string]bool{}
	for _, row := range doc.Tail {
		if got[row.Name] {
			t.Errorf("duplicate tail row %q", row.Name)
		}
		got[row.Name] = true
	}
	for name := range want {
		if !got[name] {
			t.Errorf("missing tail row %q", name)
		}
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
