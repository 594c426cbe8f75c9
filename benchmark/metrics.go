package main

import "sort"

// metricDef names a metric and its unit. BENCHMARK.json carries the same
// names (plus direction and bound); a test keeps the two in step.
type metricDef struct {
	name string
	unit string
}

// endToEnd are the metrics a user of the system would see. Every workload
// is a contention regime that runs all three phases (primitives, service,
// simulator), so every workload reports every one of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"mutex_ns_op", "ns"},
	{"counter_ns_op", "ns"},
	{"map_ns_op", "ns"},
	{"vs_static_geomean", "ratio"},
	{"svc_req_per_s", "1/s"},
	{"svc_p50_ns", "ns"},
	{"sim_host_s", "s"},
	{"sim_reactive_vs_best_static", "ratio"},
}

var primNames = []string{"mutex", "rwmutex", "counter", "fetchop", "map"}

// sliceMetrics are the end-to-end metrics that are measured slice by slice;
// each has a bench.slice_iqr_pct row beside it.
var sliceMetrics = []string{
	"mutex_ns_op", "counter_ns_op", "map_ns_op",
	"svc_req_per_s", "svc_p50_ns", "sim_host_s",
}

// forcedModes lists, per forced-mode row family, the public modes pinned
// with WithInitialMode and 1<<30 detection limits.
var forcedModes = map[string][]string{
	"reactive.mutex.lock_ns":    {"spin", "park"},
	"reactive.counter.add_ns":   {"cas", "sharded", "combining"},
	"reactive.fetchop.apply_ns": {"cas", "sharded", "combining"},
	"reactive.rwmutex.rlock_ns": {"cas", "sharded", "epoch"},
	"reactive.map.get_ns":       {"locked", "sharded", "epoch"},
	"reactive.map.put_ns":       {"locked", "sharded", "epoch"},
}

var policyNames = []string{"always", "competitive", "hysteresis", "wavg", "congestion"}

// perLayer builds the per-layer metric list, grouped by the module that
// owns the layer. The names are the ones ISSUE 11 fixed; rows a primitive
// does not have (grace counters outside RWMutex and Map) are left out.
func perLayer() []metricDef {
	var ms []metricDef
	add := func(unit string, names ...string) {
		for _, n := range names {
			ms = append(ms, metricDef{n, unit})
		}
	}
	// reactive
	add("ns",
		"reactive.mutex.lock_ns", "reactive.mutex.lockctx_ns", "reactive.mutex.trylock_ns",
		"reactive.rwmutex.rlock_ns", "reactive.rwmutex.lock_ns",
		"reactive.counter.add_ns", "reactive.counter.load_ns",
		"reactive.fetchop.apply_ns", "reactive.fetchop.value_ns",
		"reactive.map.get_ns", "reactive.map.put_ns", "reactive.map.delete_ns", "reactive.map.range_ns",
	)
	families := make([]string, 0, len(forcedModes))
	for f := range forcedModes {
		families = append(families, f)
	}
	sort.Strings(families)
	for _, f := range families {
		for _, m := range forcedModes[f] {
			add("ns", f+"."+m)
		}
	}
	for _, p := range primNames {
		add("1/s", "reactive."+p+".switches_per_s")
		add("mode", "reactive."+p+".final_mode")
		add("count", "reactive."+p+".allocs_per_op")
		add("ratio", "reactive."+p+".vs_static")
		add("ns", "reactive."+p+".cell_ns_op")
	}
	for _, p := range []string{"rwmutex", "map"} {
		add("count", "reactive."+p+".graces", "reactive."+p+".quiet_graces")
	}
	// reactive/modal
	add("ns", "modal.engine.mode_load_ns", "modal.engine.trycommit_ns", "modal.engine.vote_ns", "modal.decider.optimal_ns")
	// reactive/policy
	for _, p := range policyNames {
		add("ns", "policy."+p+".optimal_ns", "policy."+p+".suboptimal_ns")
	}
	// reactive/internal/affinity, reactive/internal/waitq: estimated through public forced modes
	add("ns", "affinity.pin_est_ns", "waitq.handoff_est_ns", "waitq.abandon_est_ns")
	// reactive/reactivehttp
	add("ns", "reactivehttp.snapshot_ns", "reactivehttp.scrape_ns")
	// internal/loadsvc
	add("ns", "loadsvc.get_ns", "loadsvc.put_ns", "loadsvc.rebuild_ns", "loadsvc.record_latency_ns", "loadsvc.get_self_est_ns", "loadsvc.p99_ns")
	add("ratio", "loadsvc.degraded_ratio")
	add("count", "loadsvc.router_switches", "loadsvc.journal_switches")
	add("mode", "loadsvc.router_final_mode")
	// internal/sim, internal/memsys, internal/machine
	add("1/s", "sim.engine.events_per_s")
	add("ns", "sim.engine.spawn_ns", "memsys.read_ns", "memsys.rmw_ns", "machine.cpu_rmw_ns")
	add("count", "sim.output_digest_ok")
	// internal/experiments, internal/core
	for _, s := range simSpecs {
		add("s", "experiments."+s+".host_s")
	}
	add("ratio", "experiments.runner.parallel_speedup")
	add("ms", "core.lockoverhead_reactive_32p.host_ms")
	// benchmark (the harness itself)
	add("ns", "bench.timer_ns", "bench.empty_loop_ns", "bench.control_ns_op")
	for _, m := range sliceMetrics {
		add("%", "bench.slice_iqr_pct."+m)
	}
	add("%", "bench.trace_overhead_pct")
	return ms
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report maps every def to its measured value; a def nothing measured is
// an error in the harness, reported rather than silently zero.
func report(defs []metricDef, got map[string]float64) (map[string]value, []string) {
	out := make(map[string]value, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := got[d.name]
		if !ok {
			missing = append(missing, d.name)
		}
		out[d.name] = value{Value: v, Unit: d.unit}
	}
	return out, missing
}
