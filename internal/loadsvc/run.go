package loadsvc

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"repro/internal/stats"
	"repro/internal/watchdog"
	"repro/reactive"
	"repro/reactive/reactivehttp"
)

// outcome classes for one executed request.
const (
	classFresh = iota
	classStale
	classCancelled
	classError
	numClasses
)

// tally is one worker lane's private accounting: outcome counts and a
// latency histogram (nanosecond buckets). Lanes never share a tally, so
// recording is synchronization-free; the runner merges tallies after the
// fleet drains.
type tally struct {
	counts  [numClasses]int64
	hist    stats.WaitProfile
	spawned int64 // goroutine bodies started on this lane (churn metric)
}

func (t *tally) record(class int, latNs int64) {
	t.counts[class]++
	if class == classFresh || class == classStale {
		t.hist.Observe(uint64(latNs))
	}
}

// item is one dispatched request: the plan entry plus its scheduled
// (not actual) arrival instant, the open-loop latency origin.
type item struct {
	req Req
	due time.Time
}

// Run executes scenario sc under o: the plan is driven once per variant
// (once, setting nothing, for a scenario with none) against a fresh
// service, the duration split evenly, and the slices' counts and
// histograms merge into one report; a multi-variant scenario also keeps
// each slice's quantiles in Report.Sub. A slice is merged before its
// error is looked at, so a run the stranded-waiter guard cut short still
// reports its lost waiters and the slices that completed.
func Run(sc Spec, o Options) (*Report, error) {
	o = o.withDefaults(sc)
	variants := sc.Variants
	if len(variants) == 0 {
		variants = []Variant{{}}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))

	sub := o
	sub.Duration = o.Duration / time.Duration(len(variants))
	merged := newReport(sc.Name, o)
	defer merged.finish()
	for _, v := range variants {
		if v.Procs > 0 {
			runtime.GOMAXPROCS(v.Procs)
		}
		r, err := runLive(sc, v.RouterMode, sub)
		merged.merge(r)
		if len(variants) > 1 {
			s := SubReport{Procs: v.Procs, Requests: r.Requests,
				P50Us: r.P50Us, P99Us: r.P99Us, P999Us: r.P999Us, MaxUs: r.MaxUs}
			if v.RouterMode != 0 {
				s.Mode = v.RouterMode.String()
			}
			merged.Sub = append(merged.Sub, s)
		}
		if err != nil {
			return merged, err
		}
	}
	return merged, nil
}

// runLive drives a fresh Service with sc's plan, open loop: a dispatcher
// releases each request at its scheduled arrival into an
// unbounded-in-practice buffer (capacity = plan length, so the
// dispatcher never blocks on a slow service), worker lanes pull and
// execute, and latency is measured from the scheduled arrival — the
// queueing delay of an overloaded service is part of the measurement.
// Primitive telemetry is scraped through a real reactivehttp endpoint
// before and after the run. The report is never nil, and is finished
// whatever the error.
func runLive(sc Spec, mode reactive.Mode, o Options) (*Report, error) {
	plan := BuildPlan(sc, o)
	svc := NewServiceFor(mode)
	rep := newReport(sc.Name, o)
	rep.Seed = plan.Seed
	defer rep.finish()

	mux := http.NewServeMux()
	reactivehttp.Handle(mux, svc.Registry())
	srv := httptest.NewServer(mux)
	defer srv.Close()
	if _, err := scrape(srv.URL); err != nil { // baseline poll: deltas start here
		return rep, err
	}

	work := make(chan item, len(plan.Reqs))
	tallies := make([]*tally, o.Workers)
	var wg sync.WaitGroup
	for i := range tallies {
		tallies[i] = &tally{}
		wg.Add(1)
		go lane(svc, work, plan.ChurnEvery, tallies[i], &wg)
	}

	start := time.Now()
	for _, r := range plan.Reqs {
		due := start.Add(r.At)
		// Spin, yielding, to the arrival instant: a sleep cannot pace
		// sub-millisecond arrivals (DESIGN.md §7 has this host's timer
		// numbers), and its overshoot would sit under every quantile.
		for time.Until(due) > 0 {
			runtime.Gosched()
		}
		work <- item{req: r, due: due}
	}
	close(work)

	// The stranded-waiter guard: every lane must drain within Guard of
	// the last arrival. A lane that never returns means a waiter was
	// lost inside a primitive — the failure mode the no-lost-wakeup
	// design rules out, so it is reported loudly (with the watchdog's
	// goroutine dump and a service snapshot) rather than hung on.
	fleetDone := make(chan struct{})
	go func() { wg.Wait(); close(fleetDone) }()
	if err := watchdog.Await(fleetDone, o.Guard, func() string {
		return fmt.Sprintf("service: hits=%d journal=%d peak_latency_ns=%d",
			svc.Hits(), svc.JournalLen(), svc.PeakLatency())
	}); err != nil {
		rep.LostWaiters = o.Workers // at least one; lanes cannot be inspected safely
		return rep, fmt.Errorf("loadsvc: %s: worker fleet still blocked %v after the last arrival (stranded waiter?): %w",
			sc.Name, o.Guard, err)
	}

	for _, t := range tallies {
		rep.absorb(t)
	}
	rep.HitCount = svc.Hits()
	rep.PeakLatencyNs = svc.PeakLatency()

	final, err := scrape(srv.URL)
	if err != nil {
		return rep, err
	}
	rep.Primitives = primitiveDeltas(final)
	return rep, nil
}

// lane keeps one worker slot occupied. Without churn the lane body runs
// the whole plan; with churn each body retires after churnEvery requests
// and the lane immediately respawns a fresh goroutine, so concurrency is
// constant while goroutine identities (and their per-P affinity history,
// parked-waiter nodes, and stack caches) turn over continuously.
func lane(svc *Service, work <-chan item, churnEvery int, t *tally, wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		done := make(chan bool)
		t.spawned++
		go func() {
			n := 0
			for it := range work {
				execute(svc, it, t)
				n++
				if churnEvery > 0 && n >= churnEvery {
					done <- true
					return
				}
			}
			done <- false
		}()
		if !<-done {
			return
		}
	}
}

// execute runs one request against the live service, classifies the
// outcome, and records its open-loop latency.
func execute(svc *Service, it item, t *tally) {
	ctx := context.Background()
	var cancel context.CancelFunc
	if d := it.req.Deadline; d > 0 {
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	switch {
	case it.req.CancelNow:
		c, cc := context.WithCancel(ctx)
		cc() // client disconnected while the request sat in the queue
		ctx = c
	case it.req.CancelAfter > 0:
		c, cc := context.WithCancel(ctx)
		defer cc()
		timer := time.AfterFunc(it.req.CancelAfter, cc)
		defer timer.Stop()
		ctx = c
	}

	var res GetResult
	var err error
	class := classFresh
	switch it.req.Kind {
	case OpGet:
		res, err = svc.Get(ctx, it.req.Key, it.req.Work)
	case OpPut:
		err = svc.Put(ctx, it.req.Key, it.req.Val, it.req.Work)
	case OpRebuild:
		err = svc.Rebuild(ctx, it.req.Val, it.req.Work)
	default:
		class = classError
	}
	switch {
	case err != nil:
		class = classCancelled
	case res.Stale:
		class = classStale
	}

	latNs := time.Since(it.due).Nanoseconds()
	if latNs < 0 {
		latNs = 0
	}
	if class == classFresh || class == classStale {
		svc.RecordLatency(latNs)
	}
	t.record(class, latNs)
}

// scrape polls the service's /debug/reactive endpoint the way an
// external monitoring agent would, returning the handler's poll-aware
// report (deltas and switch rates are relative to the previous scrape).
func scrape(base string) (reactivehttp.Report, error) {
	var rep reactivehttp.Report
	resp, err := http.Get(base + "/debug/reactive")
	if err != nil {
		return rep, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&rep)
	return rep, err
}

// primitiveDeltas flattens a scraped report into the per-primitive
// delta summary the scenario report carries.
func primitiveDeltas(rep reactivehttp.Report) map[string]PrimitiveDelta {
	out := make(map[string]PrimitiveDelta, len(rep.Primitives))
	for name, p := range rep.Primitives {
		d := PrimitiveDelta{
			Mode:     p.Mode.String(),
			Switches: p.Delta.Switches,
			Waiters:  p.Waiters,
		}
		if p.Readers != nil {
			d.ReaderMode = p.Readers.Mode.String()
			if p.Delta.Readers != nil {
				d.ReaderSwitches = p.Delta.Readers.Switches
			}
		}
		out[name] = d
	}
	return out
}
