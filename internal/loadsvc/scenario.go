package loadsvc

import (
	"math"
	"runtime"
	"time"

	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/reactive"
)

// OpKind identifies one request's operation against the Service.
type OpKind uint8

const (
	// OpGet is a deadline-bounded read of the routing table.
	OpGet OpKind = iota
	// OpPut is a journal append plus a single-entry table update.
	OpPut
	// OpRebuild is a bulk table rebuild holding the write lock long
	// enough that concurrent reads miss their deadlines.
	OpRebuild
)

// Req is one scheduled request in a Plan. At is the open-loop arrival
// offset from the run's start: the driver dispatches the request at that
// instant regardless of how far behind the service is, and latency is
// measured from At, so queueing delay shows up in the histogram.
type Req struct {
	At          time.Duration
	Kind        OpKind
	Key         uint64
	Val         uint64
	Work        uint32        // synthetic service time, spin iterations
	Deadline    time.Duration // > 0: per-request deadline (reads degrade to stale)
	CancelAfter time.Duration // > 0: client disconnects this long after arrival
	CancelNow   bool          // client gone before service even starts
}

// Spec names one scenario of the load matrix and its shape defaults.
// The specs returned by Scenarios are the harness's scenario matrix;
// EXPERIMENTS.md's "Load scenarios" table documents them and a doc-sync
// test keeps the two lists identical.
type Spec struct {
	Name        string
	Mix         string    // op mix, one line, for -list and the docs table
	Stress      string    // what the scenario is designed to expose
	DefaultRate int       // arrivals per second when Options.Rate == 0
	ChurnEvery  int       // > 0: worker goroutines retire after this many requests
	Variants    []Variant // non-empty: the plan runs once per variant, the duration split evenly
	// Draw draws the request arriving at offset at. All randomness
	// comes from rng, in a fixed per-request draw order, so the plan is
	// reproducible.
	Draw func(at time.Duration, rng *sim.Rand) Req
}

// Variant is what one slice of a scenario's run sets before driving
// the (identical) plan against a fresh service; zero fields set nothing.
type Variant struct {
	Procs      int           // > 0: GOMAXPROCS for the slice
	RouterMode reactive.Mode // nonzero: force the routing map's initial protocol
}

// Scenarios returns the load-scenario matrix in its canonical order.
func Scenarios() []Spec {
	return []Spec{
		{
			Name:        "read-heavy",
			Mix:         "95% get (2ms deadline) / 5% put",
			Stress:      "reader-path adaptivity: the routing map's locked/sharded/epoch chain under steady load",
			DefaultRate: 3000,
			Draw:        readHeavyMix,
		},
		{
			Name:        "read-heavy-epoch",
			Mix:         "95% get (2ms deadline) / 5% put; routing map forced to epoch",
			Stress:      "epoch-stamp read path and writer grace periods under steady load",
			DefaultRate: 3000,
			Variants:    []Variant{{RouterMode: reactive.ModeEpoch}},
			Draw:        readHeavyMix,
		},
		{
			Name:        "write-burst",
			Mix:         "steady 90/10 get/put; every 250ms a 40ms burst of puts + bulk rebuilds",
			Stress:      "stale-snapshot degradation while rebuilds hold the write lock",
			DefaultRate: 2500,
			Draw:        writeBurstMix,
		},
		{
			Name:        "cancellation-storm",
			Mix:         "70% get with client disconnects (3% pre-cancelled) / 20% put / 10% rebuild",
			Stress:      "LockCtx/RLockCtx cancellation racing handoffs; zero lost wakeups required",
			DefaultRate: 2500,
			Draw:        stormMix,
		},
		{
			Name:        "goroutine-churn",
			Mix:         "read-heavy mix; each worker goroutine retires after 32 requests",
			Stress:      "park/wake and per-P affinity under constantly fresh goroutine identities",
			DefaultRate: 2500,
			ChurnEvery:  32,
			Draw:        readHeavyMix,
		},
		{
			Name:        "gomaxprocs-sweep",
			Mix:         "read-heavy mix repeated at GOMAXPROCS 1, 2, 4 (and NumCPU if larger)",
			Stress:      "trajectory of the same workload across parallelism levels",
			DefaultRate: 2000,
			Variants:    sweepProcs(),
			Draw:        readHeavyMix,
		},
		{
			Name:        "map-read-heavy",
			Mix:         "95% get (2ms deadline) / 5% put, repeated with the routing map forced to locked, sharded, and epoch",
			Stress:      "the same mix across all three Map protocols; epoch's published-table reads should erase degraded reads",
			DefaultRate: 3000,
			Variants:    []Variant{{RouterMode: reactive.ModeLocked}, {RouterMode: reactive.ModeSharded}, {RouterMode: reactive.ModeEpoch}},
			Draw:        readHeavyMix,
		},
	}
}

// ScenarioNames returns the matrix's names in canonical order.
func ScenarioNames() []string {
	specs := Scenarios()
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return names
}

// Lookup finds a scenario by name.
func Lookup(name string) (Spec, bool) {
	for _, s := range Scenarios() {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// sweepProcs is the GOMAXPROCS sweep set: the fixed rungs 1, 2, 4 so
// documents stay row-comparable across hosts, plus the host's NumCPU
// when it is larger (that row is host-specific).
func sweepProcs() []Variant {
	vs := []Variant{{Procs: 1}, {Procs: 2}, {Procs: 4}}
	if n := runtime.NumCPU(); n > 4 {
		vs = append(vs, Variant{Procs: n})
	}
	return vs
}

// Options shape one scenario run. The zero value means "scenario
// defaults": DefaultRate arrivals/sec, 2s duration, 16 workers, seed 1,
// a GuardDefault stranded-waiter guard.
type Options struct {
	Rate     int           // arrivals per second (0: Spec.DefaultRate)
	Duration time.Duration // scheduled arrival window (0: 2s)
	Workers  int           // concurrent worker lanes (0: 16)
	Seed     uint64        // base seed; per-scenario seeds derive from it (0: 1)
	Guard    time.Duration // stranded-waiter timeout after the last arrival (0: GuardDefault)
}

// GuardDefault is the default stranded-waiter guard, exported for
// cmd/loadgen's flag help.
const GuardDefault = 10 * time.Second

func (o Options) withDefaults(sc Spec) Options {
	if o.Rate == 0 {
		o.Rate = sc.DefaultRate
	}
	if o.Duration == 0 {
		o.Duration = 2 * time.Second
	}
	if o.Workers == 0 {
		o.Workers = 16
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Guard == 0 {
		o.Guard = GuardDefault
	}
	return o
}

// Plan is a fully materialized request schedule: everything about the
// run except wall-clock execution. Plans are deterministic — BuildPlan
// derives the scenario's RNG seed from (Options.Seed, scenario name)
// with the experiment registry's idiom, so the same options always
// produce byte-identical plans regardless of host or run order.
type Plan struct {
	Scenario   string
	Seed       uint64 // the derived per-scenario seed
	Rate       int
	Duration   time.Duration
	ChurnEvery int
	Reqs       []Req
}

// planSeed derives the per-scenario plan seed, reusing
// experiments.ExperimentSeed so load scenarios and simulator experiments
// share one seed-derivation idiom.
func planSeed(base uint64, scenario string) uint64 {
	return experiments.ExperimentSeed(base, "loadgen/"+scenario)
}

// BuildPlan materializes sc's request schedule under o.
func BuildPlan(sc Spec, o Options) Plan {
	o = o.withDefaults(sc)
	p := Plan{
		Scenario:   sc.Name,
		Seed:       planSeed(o.Seed, sc.Name),
		Rate:       o.Rate,
		Duration:   o.Duration,
		ChurnEvery: sc.ChurnEvery,
	}
	rng := sim.NewRand(p.Seed)
	step := time.Duration(uint64(time.Second) / uint64(o.Rate))
	n := int(o.Duration / step)
	p.Reqs = make([]Req, 0, n)
	for i := 0; i < n; i++ {
		at := time.Duration(i) * step
		r := sc.Draw(at, rng)
		r.At = at
		p.Reqs = append(p.Reqs, r)
	}
	return p
}

// Per-scenario shape constants. Works are spin iterations (roughly
// cycles); deadlines and cancel windows are wall time.
const (
	getWorkBase   = 200
	getWorkSpread = 200
	putWork       = 800
	// rebuildWork makes a bulk rebuild hold the write lock on the order
	// of a millisecond on commodity hardware — past the read deadlines,
	// so reads queued behind a rebuild exercise the stale-snapshot path.
	rebuildWork = 600000

	readDeadline  = 2 * time.Millisecond
	burstDeadline = 1 * time.Millisecond

	burstPeriod = 250 * time.Millisecond
	burstLen    = 40 * time.Millisecond

	cancelFloor = 100 * time.Microsecond
	cancelMean  = 300 * time.Microsecond
)

// readHeavyMix is the steady 95/5 get/put mix five scenarios share;
// they differ in what runs it (churn, variants), not in the plan's shape.
func readHeavyMix(_ time.Duration, rng *sim.Rand) Req {
	if rng.Intn(100) < 95 {
		return getReq(rng, readDeadline)
	}
	return putReq(rng)
}

func writeBurstMix(at time.Duration, rng *sim.Rand) Req {
	if at%burstPeriod < burstLen {
		switch d := rng.Intn(100); {
		case d < 40:
			return putReq(rng)
		case d < 45:
			return rebuildReq(rng)
		default:
			return getReq(rng, burstDeadline)
		}
	}
	if rng.Intn(100) < 10 {
		return putReq(rng)
	}
	return getReq(rng, burstDeadline)
}

func stormMix(_ time.Duration, rng *sim.Rand) Req {
	switch d := rng.Intn(100); {
	case d < 70:
		r := getReq(rng, 0)
		if rng.Intn(100) < 3 {
			r.CancelNow = true
		} else {
			r.CancelAfter = cancelFloor + time.Duration(expDraw(rng)*float64(cancelMean))
		}
		return r
	case d < 90:
		return putReq(rng)
	default:
		return rebuildReq(rng)
	}
}

func getReq(rng *sim.Rand, deadline time.Duration) Req {
	return Req{
		Kind:     OpGet,
		Key:      rng.Uint64n(TableKeys),
		Work:     uint32(getWorkBase + rng.Intn(getWorkSpread)),
		Deadline: deadline,
	}
}

func putReq(rng *sim.Rand) Req {
	return Req{
		Kind: OpPut,
		Key:  rng.Uint64n(TableKeys),
		Val:  rng.Uint64(),
		Work: putWork,
	}
}

func rebuildReq(rng *sim.Rand) Req {
	return Req{Kind: OpRebuild, Val: rng.Uint64(), Work: rebuildWork}
}

// expDraw samples a unit-mean exponential from rng.
func expDraw(rng *sim.Rand) float64 {
	u := rng.Float64()
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	return -math.Log(1 - u)
}
