package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/loadsvc"
	"repro/internal/machine"
	"repro/internal/memsys"
	"repro/internal/sim"
	"repro/reactive"
	"repro/reactive/modal"
	"repro/reactive/policy"
	"repro/reactive/reactivehttp"
)

// The traced run is a second, separate run: a shortened pass over the
// workload's three phases with spans recorded, then one micro row per layer
// boundary. End-to-end metrics never come from it.
//
// Rows that exercise a primitive or the service run at the workload's
// goroutine count and report aggregate wall ns per op, like the end-to-end
// rows they decompose; rows of single-threaded layers (modal, policy,
// simulator) run on one goroutine.

const (
	layerPrimShare = 0.22
	layerSvcShare  = 0.18
	layerRowShare  = 0.002 // of -seconds, per micro row
	layerRounds    = 3
)

// sink keeps results the rows compute alive.
var sink atomic.Uint64

// micro measures fn — "run n operations as goroutine id" — on g goroutines
// in three slices and returns the median aggregate ns per operation.
func micro(g int, d time.Duration, batch int, fn func(id, n int)) float64 {
	xs := make([]float64, 3)
	for i := range xs {
		ops, wall := runSlice(g, d/3, nil, untilDeadline(batch, fn))
		xs[i] = nsPerOp(ops, wall)
	}
	return median(xs)
}

// never is a detection limit no run reaches, which pins a forced mode.
const never = 1 << 30

func forced(m reactive.Mode) []reactive.Option {
	return []reactive.Option{reactive.WithInitialMode(m), reactive.WithSpinFailLimit(never), reactive.WithEmptyLimit(never)}
}

var modeByName = map[string]reactive.Mode{
	"spin": reactive.ModeSpin, "park": reactive.ModePark,
	"cas": reactive.ModeCAS, "sharded": reactive.ModeSharded, "combining": reactive.ModeCombining,
	"epoch": reactive.ModeEpoch, "locked": reactive.ModeLocked,
}

func seededMap(opts ...reactive.Option) *reactive.Map[uint64, uint64] {
	m := reactive.NewMap[uint64, uint64](opts...)
	for k := uint64(0); k < mapKeys; k++ {
		m.Put(k, k)
	}
	return m
}

// layerRows measures every micro row. row wraps each in a driver span.
type layerRows struct {
	g   int
	d   time.Duration
	tr  *tracer
	got map[string]float64
}

func (l *layerRows) row(name string, g int, fn func(id, n int)) float64 {
	return l.rowN(name, g, batchOps, fn)
}

func (l *layerRows) rowN(name string, g, batch int, fn func(id, n int)) float64 {
	return l.once(name, func() float64 { return micro(g, l.d, batch, fn) })
}

// once records a row that fn measures in its own way — a difference of two
// loops, or one fixed piece of work — under the row's span.
func (l *layerRows) once(name string, fn func() float64) float64 {
	defer l.tr.span("layer:" + name)()
	v := fn()
	l.got[name] = v
	return v
}

func (l *layerRows) reactiveRows() {
	g := l.g
	bg := context.Background()

	mu := reactive.New()
	l.row("reactive.mutex.lock_ns", g, func(_, n int) {
		for i := 0; i < n; i++ {
			mu.Lock()
			mu.Unlock()
		}
	})
	l.row("reactive.mutex.lockctx_ns", g, func(_, n int) {
		for i := 0; i < n; i++ {
			if mu.LockCtx(bg) == nil {
				mu.Unlock()
			}
		}
	})
	l.row("reactive.mutex.trylock_ns", g, func(_, n int) {
		for i := 0; i < n; i++ {
			if mu.TryLock() {
				mu.Unlock()
			}
		}
	})
	for _, name := range forcedModes["reactive.mutex.lock_ns"] {
		fm := reactive.New(forced(modeByName[name])...)
		l.row("reactive.mutex.lock_ns."+name, g, func(_, n int) {
			for i := 0; i < n; i++ {
				fm.Lock()
				fm.Unlock()
			}
		})
	}

	rw := reactive.NewRWMutex()
	rlock := func(rw *reactive.RWMutex) func(_, n int) {
		return func(_, n int) {
			for i := 0; i < n; i++ {
				rw.RLock()
				rw.RUnlock()
			}
		}
	}
	l.row("reactive.rwmutex.rlock_ns", g, rlock(rw))
	l.row("reactive.rwmutex.lock_ns", g, func(_, n int) {
		for i := 0; i < n; i++ {
			rw.Lock()
			rw.Unlock()
		}
	})
	for _, name := range forcedModes["reactive.rwmutex.rlock_ns"] {
		frw := reactive.NewRWMutex(reactive.WithInitialReaderMode(modeByName[name]),
			reactive.WithSpinFailLimit(never), reactive.WithEmptyLimit(never))
		l.row("reactive.rwmutex.rlock_ns."+name, g, rlock(frw))
	}

	add := func(c *reactive.Counter) func(_, n int) {
		return func(_, n int) {
			for i := 0; i < n; i++ {
				c.Add(1)
			}
		}
	}
	ctr := reactive.NewCounter()
	l.row("reactive.counter.add_ns", g, add(ctr))
	l.row("reactive.counter.load_ns", g, func(_, n int) {
		var s int64
		for i := 0; i < n; i++ {
			s += ctr.Load()
		}
		sink.Add(uint64(s))
	})
	for _, name := range forcedModes["reactive.counter.add_ns"] {
		l.row("reactive.counter.add_ns."+name, g, add(reactive.NewCounter(forced(modeByName[name])...)))
	}

	apply := func(f *reactive.FetchOp) func(_, n int) {
		return func(id, n int) {
			for i := 0; i < n; i++ {
				f.Apply(int64(id<<20 | i))
			}
		}
	}
	fop := reactive.NewFetchOp(maxOp, math.MinInt64)
	l.row("reactive.fetchop.apply_ns", g, apply(fop))
	l.row("reactive.fetchop.value_ns", g, func(_, n int) {
		var s int64
		for i := 0; i < n; i++ {
			s += fop.Value()
		}
		sink.Add(uint64(s))
	})
	for _, name := range forcedModes["reactive.fetchop.apply_ns"] {
		l.row("reactive.fetchop.apply_ns."+name, g, apply(reactive.NewFetchOp(maxOp, math.MinInt64, forced(modeByName[name])...)))
	}

	get := func(m *reactive.Map[uint64, uint64]) func(_, n int) {
		return func(id, n int) {
			var s uint64
			for i := 0; i < n; i++ {
				v, _ := m.Get(uint64(i+id*37) % mapKeys)
				s += v
			}
			sink.Add(s)
		}
	}
	put := func(m *reactive.Map[uint64, uint64]) func(_, n int) {
		return func(id, n int) {
			for i := 0; i < n; i++ {
				m.Put(uint64(i+id*37)%mapKeys, uint64(i))
			}
		}
	}
	mp := seededMap()
	l.row("reactive.map.get_ns", g, get(mp))
	putNs := l.row("reactive.map.put_ns", g, put(mp))
	// Delete needs a present key each time, so it is timed as a
	// Delete+Put pair less the Put row.
	pair := l.row("reactive.map.delete_ns", g, func(id, n int) {
		for i := 0; i < n; i++ {
			k := uint64(i+id*37) % mapKeys
			mp.Delete(k)
			mp.Put(k, uint64(i))
		}
	})
	l.got["reactive.map.delete_ns"] = math.Max(pair-putNs, 0)
	l.rowN("reactive.map.range_ns", g, 4, func(_, n int) { // per Range over mapKeys entries
		var s uint64
		for i := 0; i < n; i++ {
			mp.Range(func(_, v uint64) bool { s += v; return true })
		}
		sink.Add(s)
	})
	for _, name := range forcedModes["reactive.map.get_ns"] {
		fm := seededMap(forced(modeByName[name])...)
		l.row("reactive.map.get_ns."+name, g, get(fm))
		l.row("reactive.map.put_ns."+name, g, put(fm))
	}
}

func (l *layerRows) modalAndPolicyRows() {
	tab := reactive.FetchOpTable()
	var eng modal.Engine
	l.row("modal.engine.mode_load_ns", 1, func(_, n int) {
		var s uint64
		for i := 0; i < n; i++ {
			s += uint64(eng.Mode())
		}
		sink.Add(s)
	})
	var voter modal.Engine
	l.row("modal.engine.vote_ns", 1, func(_, n int) {
		for i := 0; i < n; i++ {
			if voter.Vote(tab, 0, 1, never) {
				sink.Add(1)
			}
		}
	})
	var flip modal.Engine
	l.row("modal.engine.trycommit_ns", 1, func(_, n int) {
		for i := 0; i < n; i += 2 {
			flip.TryCommit(tab, 0, 1)
			flip.TryCommit(tab, 1, 0)
		}
	})
	var pol policy.Policy = policy.NewCompetitive(3 * reactive.ResidualCheapHigh)
	dec := modal.NewDecider(tab, &pol)
	l.row("modal.decider.optimal_ns", 1, func(_, n int) {
		for i := 0; i < n; i++ {
			dec.Optimal(0, 1)
		}
	})

	policies := map[string]policy.Policy{
		"always":      policy.AlwaysSwitch{},
		"competitive": policy.NewCompetitive(3 * reactive.ResidualCheapHigh),
		"hysteresis":  policy.NewHysteresis(3, 8),
		"wavg":        policy.NewWeightedAverage(64, 128),
		"congestion":  policy.NewCongestion(),
	}
	for _, name := range policyNames {
		p := policies[name]
		l.row("policy."+name+".optimal_ns", 1, func(_, n int) {
			for i := 0; i < n; i++ {
				p.Optimal(0)
			}
		})
		l.row("policy."+name+".suboptimal_ns", 1, func(_, n int) {
			for i := 0; i < n; i++ {
				if p.Suboptimal(0, reactive.ResidualScalableLow) {
					p.Switched()
				}
			}
		})
	}
}

// waiterRows estimates the two Go-internal layers under reactive/ through
// public forced modes; the names say "est".
func (l *layerRows) waiterRows() {
	// affinity.Pin: what the sharded protocol pays over one CAS word when
	// nothing contends — one goroutine, whatever the workload.
	one := func(m reactive.Mode) float64 {
		c := reactive.NewCounter(forced(m)...)
		return micro(1, l.d, batchOps, func(_, n int) {
			for i := 0; i < n; i++ {
				c.Add(1)
			}
		})
	}
	l.once("affinity.pin_est_ns", func() float64 {
		return math.Max(one(reactive.ModeSharded)-one(reactive.ModeCAS), 0)
	})

	// waitq handoff: two goroutines alternate on a forced-park mutex whose
	// critical section outlasts the polling budget, so every acquisition
	// is a park and every release a grant. The same loop alone gives the
	// critical section's own cost.
	const cs = 2000
	loop := func(g int) float64 {
		m := reactive.New(append(forced(reactive.ModePark), reactive.WithPollIters(1))...)
		var x uint64
		return micro(g, 3*l.d, 4, func(_, n int) {
			for i := 0; i < n; i++ {
				m.Lock()
				x = churn(x, cs)
				m.Unlock()
			}
		})
	}
	l.once("waitq.handoff_est_ns", func() float64 { return math.Max(loop(2)-loop(1), 0) })

	// waitq abandon: LockCtx on a held mutex with a context that expires;
	// how long after the deadline does it return?
	l.once("waitq.abandon_est_ns", func() float64 {
		m := reactive.New(forced(reactive.ModePark)...)
		m.Lock()
		late := make([]float64, 25)
		for i := range late {
			ctx, cancel := context.WithTimeout(context.Background(), 100*time.Microsecond)
			dl, _ := ctx.Deadline()
			if m.LockCtx(ctx) == nil {
				m.Unlock() // cannot happen while held; keep the lock state sane if it does
			}
			late[i] = float64(time.Since(dl))
			cancel()
		}
		m.Unlock()
		return math.Max(median(late), 0)
	})
}

// nullWriter is an http.ResponseWriter that discards, so a scrape is
// measured without a socket or a recorder's buffers.
type nullWriter struct{ h http.Header }

func (w nullWriter) Header() http.Header       { return w.h }
func (nullWriter) Write(b []byte) (int, error) { return len(b), nil }
func (nullWriter) WriteHeader(int)             {}

func (l *layerRows) serviceRows() {
	reg := &reactivehttp.Registry{}
	reg.Register("mutex", reactive.New())
	reg.Register("rwmutex", reactive.NewRWMutex())
	reg.Register("counter", reactive.NewCounter())
	reg.Register("map", seededMap())
	l.row("reactivehttp.snapshot_ns", 1, func(_, n int) {
		for i := 0; i < n; i++ {
			sink.Add(uint64(len(reg.Snapshot().Primitives)))
		}
	})
	h := reactivehttp.NewHandler(reg)
	w := nullWriter{h: make(http.Header)}
	l.row("reactivehttp.scrape_ns", 1, func(_, n int) {
		for i := 0; i < n; i++ {
			h.ServeHTTP(w, nil)
		}
	})

	// The service's calls with zero synthetic work, so the rows are the
	// service's own cost on top of its primitives.
	bg := context.Background()
	svc := loadsvc.NewService()
	getNs := l.row("loadsvc.get_ns", l.g, func(id, n int) {
		for i := 0; i < n; i++ {
			res, _ := svc.Get(bg, uint64(i+id*37), 0)
			sink.Add(res.Val)
		}
	})
	l.row("loadsvc.put_ns", l.g, func(id, n int) {
		for i := 0; i < n; i++ {
			k := uint64(i + id*37)
			if svc.Put(bg, k, keyTag(k%loadsvc.TableKeys), 0) != nil {
				sink.Add(1)
			}
		}
	})
	l.row("loadsvc.record_latency_ns", l.g, func(id, n int) {
		for i := 0; i < n; i++ {
			svc.RecordLatency(int64(id<<20 | i))
		}
	})
	l.rowN("loadsvc.rebuild_ns", l.g, 1, func(_, n int) { // per Rebuild of TableKeys entries
		for i := 0; i < n; i++ {
			if svc.Rebuild(bg, uint64(i)<<16, 0) != nil {
				sink.Add(1)
			}
		}
	})
	l.got["loadsvc.get_self_est_ns"] = math.Max(getNs-l.got["reactive.counter.add_ns"]-l.got["reactive.map.get_ns"], 0)
}

func (l *layerRows) simulatorRows(tl *tally) {
	// N actors each advancing one cycle M times: N*M events by construction.
	const actors, steps = 32, 4000
	l.once("sim.engine.events_per_s", func() float64 {
		e := sim.New(1)
		for a := 0; a < actors; a++ {
			e.Spawn("a", 0, func(a *sim.Actor) {
				for i := 0; i < steps; i++ {
					a.Advance(1)
				}
			})
		}
		t0 := time.Now()
		tl.attempted++
		tl.fail(e.Run())
		return actors * steps / time.Since(t0).Seconds()
	})
	l.once("sim.engine.spawn_ns", func() float64 {
		const n = 5000
		e := sim.New(1)
		t0 := time.Now()
		for a := 0; a < n; a++ {
			e.Spawn("a", 0, func(*sim.Actor) {})
		}
		tl.attempted++
		tl.fail(e.Run())
		return float64(time.Since(t0)) / n
	})

	const nodes = 16
	ms := memsys.New(memsys.DefaultConfig(nodes))
	addr := ms.Alloc(0, 1)
	var now memsys.Time
	l.row("memsys.read_ns", 1, func(_, n int) {
		for i := 0; i < n; i++ {
			_, lat := ms.Read(i%nodes, addr, now)
			now += lat
		}
	})
	l.row("memsys.rmw_ns", 1, func(_, n int) {
		for i := 0; i < n; i++ {
			_, _, lat := ms.RMW(i%nodes, addr, now, func(old uint64) (uint64, bool) { return old + 1, true })
			now += lat
		}
	})
	l.once("machine.cpu_rmw_ns", func() float64 {
		const n = 50000
		m := machine.New(machine.DefaultConfig(1))
		a := m.Mem.Alloc(0, 1)
		m.SpawnCPU(0, 0, "w", func(c *machine.CPU) {
			for i := 0; i < n; i++ {
				c.FetchAndAdd(a, 1)
			}
		})
		t0 := time.Now()
		tl.attempted++
		tl.fail(m.Run())
		d := time.Since(t0)
		if got := m.Mem.Peek(a); got != n {
			tl.fail(fmt.Errorf("simulated FetchAndAdd word = %d, want %d", got, n))
		}
		return float64(d) / n
	})
	l.once("core.lockoverhead_reactive_32p.host_ms", func() float64 {
		t0 := time.Now()
		sink.Add(uint64(experiments.LockOverhead("reactive", 32, 32, 20)))
		return float64(time.Since(t0)) / float64(time.Millisecond)
	})
}

func (l *layerRows) harnessRows() {
	l.row("bench.timer_ns", 1, func(_, n int) {
		var s int64
		for i := 0; i < n; i++ {
			s += time.Now().UnixNano()
		}
		sink.Add(uint64(s))
	})
	// What the slice loop itself costs per op: an empty batch.
	l.row("bench.empty_loop_ns", 1, func(int, int) {})
	var ctl control
	l.row("bench.control_ns_op", 1, func(_, n int) { ctl.run(n) })
}

// allocsPerOp runs one more slice of a cell's reactive implementation
// between two heap snapshots.
func allocsPerOp(c *cell, g int, d time.Duration, tl *tally) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ops, _ := runSlice(g, d, nil, batchLoop(c.streams, c.impls[0].batch))
	runtime.ReadMemStats(&after)
	tl.attempted += ops
	tl.fail(c.impls[0].check())
	return float64(after.Mallocs-before.Mallocs) / float64(ops)
}

// runLayers is the traced run.
func runLayers(rg regime, seed uint64, seconds int, traceOut string) (runRecord, error) {
	rec := runRecord{Workload: rg.name, Seed: seed, Seconds: seconds, Trace: 1, Env: readEnv()}
	var tl tally
	tr := newTracer()
	endRun := tr.span("run:" + rg.name)
	got := make(map[string]float64)

	endSetup := tr.span("setup")
	b := setUp(rg, seed)
	endSetup()

	// The workload's rounds, shortened and traced; every round runs a
	// traced and an untraced service slice.
	slice := sliceLen(seconds, layerPrimShare, (layerRounds+1)*implSlices(b.cells)+len(b.cells))
	res, err := runRounds(rg, seed, b, plan{
		rounds:    layerRounds,
		primSlice: slice,
		svcSlice:  sliceLen(seconds, layerSvcShare, 2*layerRounds+1),
		simMin:    layerRounds,
		tracedSvc: true,
	}, tr, &tl)
	if err != nil {
		return rec, err
	}
	prims, svcP, svcT, sim := res.prims, res.svc, res.svcTraced, res.sim
	for ci, p := range prims {
		pre := "reactive." + p.Prim
		got[pre+".switches_per_s"] = p.SwitchesPS
		got[pre+".final_mode"] = p.FinalMode
		got[pre+".vs_static"] = p.VsStatic
		got[pre+".allocs_per_op"] = allocsPerOp(b.cells[ci], b.g, slice, &tl)
		if p.Prim == "rwmutex" || p.Prim == "map" {
			got[pre+".graces"] = float64(p.Graces)
			got[pre+".quiet_graces"] = float64(p.QuietGraces)
		}
		got[pre+".cell_ns_op"] = p.Impls[0].NsOp.Mid
		if slices.Contains(sliceMetrics, p.Prim+"_ns_op") {
			got["bench.slice_iqr_pct."+p.Prim+"_ns_op"] = p.Impls[0].NsOp.iqrPct()
		}
	}
	got["bench.trace_overhead_pct"] = 100 * (svcP.ReqPerS.Mid - svcT.ReqPerS.Mid) / svcP.ReqPerS.Mid
	got["bench.slice_iqr_pct.svc_req_per_s"] = svcP.ReqPerS.iqrPct()
	got["bench.slice_iqr_pct.svc_p50_ns"] = svcP.P50.iqrPct()
	got["loadsvc.degraded_ratio"] = svcP.Degraded
	got["loadsvc.p99_ns"] = svcP.P99.Mid
	router, journal := svcP.Snapshot.Primitives["router"], svcP.Snapshot.Primitives["journal"]
	got["loadsvc.router_switches"] = float64(switchCount(router))
	got["loadsvc.journal_switches"] = float64(switchCount(journal))
	got["loadsvc.router_final_mode"] = modeIndex(router)
	for i, s := range simSpecs {
		got["experiments."+s+".host_s"] = sim.PerSpecS[i]
	}
	got["bench.slice_iqr_pct.sim_host_s"] = sim.HostS.iqrPct()
	got["sim.output_digest_ok"] = 0
	if sim.DigestOK {
		got["sim.output_digest_ok"] = 1
	}

	// The same spec list through the Runner's worker pool.
	specs, err := lookupSpecs(simSpecs)
	if err != nil {
		return rec, err
	}
	endPar := tr.span("Runner.Run:parallel")
	t0 := time.Now()
	runner := experiments.Runner{Sizes: simSizes(rg), Parallel: runtime.GOMAXPROCS(0), BaseSeed: simBaseSeed(seed)}
	par := runner.Run(specs)
	parS := time.Since(t0).Seconds()
	endPar()
	tl.attempted++
	tl.fail(experiments.FirstErr(par))
	got["experiments.runner.parallel_speedup"] = sim.HostS.Mid / parS

	// One micro row per layer boundary.
	endRows := tr.span("layer-rows")
	l := &layerRows{g: b.g, d: time.Duration(float64(seconds) * layerRowShare * float64(time.Second)), tr: tr, got: got}
	l.reactiveRows()
	l.modalAndPolicyRows()
	l.waiterRows()
	l.serviceRows()
	l.simulatorRows(&tl)
	l.harnessRows()
	endRows()
	endRun()

	var missing []string
	rec.Metrics, missing = report(perLayer(), got)
	if len(missing) > 0 {
		return rec, fmt.Errorf("harness bug: no value for %v", missing)
	}
	rec.Prims, rec.Service, rec.Sim = prims, &svcP, &sim
	rec.Attempted, rec.Failed, rec.Correct = tl.attempted, tl.failed, tl.failed == 0

	doc := tr.doc()
	fmt.Printf("  traced wall %.3f s; driver-track self times sum to %.3f s; %d spans\n",
		float64(doc.WallNs)/1e9, float64(doc.DriverSelfNs)/1e9, len(doc.Spans))
	if traceOut != "" {
		if err := writeJSONFile(traceOut, doc); err != nil {
			return rec, err
		}
	}
	return rec, nil
}
