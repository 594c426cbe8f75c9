package experiments

// Congestion-control adaptivity and telemetry experiments: deterministic
// drives of the policy.Congestion feedback policy over the modal engine's
// synthetic contention trace, and of the reactivehttp Registry/Snapshot
// telemetry surface over the native primitives' documented scale-down
// paths. Both are pure call-sequence state machines (no wall clock), so
// they participate in the registry's serial==parallel contract.

import (
	"fmt"

	"repro/internal/stats"
	"repro/reactive"
	"repro/reactive/modal"
	"repro/reactive/policy"
	"repro/reactive/reactivehttp"
)

// NativeCongestionTrace drives the native fetch-op modal engine through
// the phased contention trace with a policy.Congestion installed,
// tabulating — per phase — where the engine lived, how many switches the
// policy allowed, and how its internal estimates (occupancy window,
// smoothed residual) evolved. The congestion-control shape to look for:
// the window widens when the ramp phases provoke premature flips and
// relaxes back once a phase holds the engine in one protocol.
func NativeCongestionTrace(sz Sizes) *stats.Table {
	var e modal.Engine
	pol := policy.NewCongestion()
	e.SetPolicy(pol)
	return fopChain.trace(sz, &e,
		traceColumn{"window", func() string { return fmt.Sprintf("%d", pol.Window()) }},
		traceColumn{"srtt", func() string { return fmt.Sprintf("%d", pol.SRTT()) }})
}

// telemetryStep is one primitive of the telemetry experiment: a named
// Source pre-committed to a scalable protocol, plus the single-goroutine
// workload that deterministically drives it back down (the documented
// scale-down paths: idle unlocks, idle reconciling reads, quiet writer
// drains), and accessors for the engine under observation.
type telemetryStep struct {
	name    string
	src     reactivehttp.Source
	op      func()                             // one idle-workload step
	mode    func(reactive.Stats) reactive.Mode // engine being watched
	deltaSw func(reactive.Stats) uint64        // switch delta of that engine
	target  reactive.Mode                      // mode the drain must reach
}

func telemetrySteps() []telemetryStep {
	mainMode := func(s reactive.Stats) reactive.Mode { return s.Mode }
	mainSw := func(s reactive.Stats) uint64 { return s.Switches }

	m := reactive.New(reactive.WithInitialMode(reactive.ModePark))
	c := reactive.NewCounter(reactive.WithInitialMode(reactive.ModeSharded))
	f := reactive.NewFetchOp(func(a, b int64) int64 { return a + b }, 0,
		reactive.WithInitialMode(reactive.ModeCombining))
	rw := reactive.NewRWMutex(reactive.WithInitialReaderMode(reactive.ModeSharded))

	return []telemetryStep{
		{
			name: "mutex", src: m,
			op:   func() { m.Lock(); m.Unlock() },
			mode: mainMode, deltaSw: mainSw,
			target: reactive.ModeSpin,
		},
		{
			name: "counter", src: c,
			op:   func() { c.Add(1); c.Load() },
			mode: mainMode, deltaSw: mainSw,
			target: reactive.ModeCAS,
		},
		{
			name: "fetchop", src: f,
			op:   func() { f.Apply(1); f.Value() },
			mode: mainMode, deltaSw: mainSw,
			target: reactive.ModeCAS,
		},
		{
			name: "rwmutex-readers", src: rw,
			op:      func() { rw.Lock(); rw.Unlock() },
			mode:    func(s reactive.Stats) reactive.Mode { return s.Readers.Mode },
			deltaSw: func(s reactive.Stats) uint64 { return s.Readers.Switches },
			target:  reactive.ModeCAS,
		},
	}
}

// NativeTelemetryDeltas exercises the reactivehttp Registry/Snapshot
// surface end to end, deterministically: each primitive starts committed
// to its scalable protocol, a single-goroutine idle workload drives it
// back down, and the table reports what a telemetry poller would see —
// the Snapshot.Sub delta between a poll taken before the drain and one
// taken after. The first poll lands after construction, so the switch
// deltas count exactly the observed scale-downs (one per transition
// edge crossed), the way a live scraper would read them.
func NativeTelemetryDeltas(sz Sizes) *stats.Table {
	var reg reactivehttp.Registry
	steps := telemetrySteps()
	for _, st := range steps {
		reg.Register(st.name, st.src)
	}
	prev := reg.Snapshot()

	t := &stats.Table{Header: []string{"primitive", "start-mode", "end-mode", "switches+", "ops", "waiters"}}
	// Bound each drain generously; every path needs at most a few
	// EmptyLimit-length streaks (the fetch-op crosses two edges).
	bound := 8 * reactive.DefaultEmptyLimit * sz.BaselineIters
	for _, st := range steps {
		start := st.mode(st.src.Stats())
		ops := 0
		for st.mode(st.src.Stats()) != st.target {
			st.op()
			ops++
			if ops > bound {
				break
			}
		}
		cur := reg.Snapshot()
		delta := cur.Sub(prev).Primitives[st.name]
		stats := st.src.Stats()
		t.AddRow(st.name, start.String(), st.mode(stats).String(),
			fmt.Sprintf("%d", st.deltaSw(delta)),
			fmt.Sprintf("%d", ops),
			fmt.Sprintf("%d", stats.Waiters))
	}
	return t
}
