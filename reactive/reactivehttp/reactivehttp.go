// Package reactivehttp exports the telemetry of the adaptive primitives
// in package reactive over expvar and HTTP.
//
// A Registry names primitives; Snapshot captures every registered
// primitive's Stats at once, and Snapshot.Sub converts two snapshots
// into deltas with the Stats.Sub contract (monotonic counters subtract,
// gauges keep the newer value). Publish exposes live snapshots through
// the standard expvar surface, and Handle mounts a poll-aware handler at
// /debug/reactive that additionally reports the interval since the
// previous poll, per-primitive switch rates, and cumulative mode
// residency — everything an operator needs to watch a fleet of reactive
// locks decide (DESIGN.md §6).
//
// The Registry and Snapshot layer is pure bookkeeping — no clock, no
// I/O — so deterministic harnesses (see internal/experiments) can drive
// it byte-identically; only the HTTP handler consults wall time.
package reactivehttp

import (
	"encoding/json"
	"expvar"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/reactive"
)

// Source is the telemetry surface every adaptive primitive in package
// reactive provides: Mutex, RWMutex, Counter, FetchOp, and Map all
// satisfy it. Stats must be safe to call concurrently with the primitive's use
// (package reactive's are).
type Source interface {
	Stats() reactive.Stats
}

// Registry names a set of primitives for export. The zero value is
// ready to use. Registration is typically done once at startup;
// Snapshot may be called concurrently with Register and with the
// primitives' normal operation.
type Registry struct {
	mu      sync.Mutex
	sources map[string]Source
}

// Register adds src under name. It panics on an empty name, a nil src,
// or a name already registered — telemetry names are program-level
// identifiers, and colliding ones silently corrupt dashboards.
func (r *Registry) Register(name string, src Source) {
	if name == "" {
		panic("reactivehttp: Register with empty name")
	}
	if src == nil {
		panic("reactivehttp: Register with nil Source")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sources == nil {
		r.sources = make(map[string]Source)
	}
	if _, dup := r.sources[name]; dup {
		panic("reactivehttp: duplicate Register of " + name)
	}
	r.sources[name] = src
}

// Names returns the registered names, sorted.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.sources))
	for name := range r.sources {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Snapshot captures every registered primitive's Stats. Each
// primitive's snapshot is individually consistent; the set is not a
// global atomic cut (primitives keep running between reads).
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	sources := make(map[string]Source, len(r.sources))
	for name, src := range r.sources {
		sources[name] = src
	}
	r.mu.Unlock()
	snap := Snapshot{Primitives: make(map[string]reactive.Stats, len(sources))}
	for name, src := range sources {
		snap.Primitives[name] = src.Stats()
	}
	return snap
}

// Snapshot is a point-in-time capture of a Registry: one Stats per
// registered primitive, keyed by its registered name. It marshals to
// JSON with names in sorted order (Go maps marshal with sorted keys).
type Snapshot struct {
	Primitives map[string]reactive.Stats `json:"primitives"`
}

// Sub returns the per-primitive delta from an earlier snapshot prev,
// applying Stats.Sub name by name. A name missing from prev (a
// primitive registered between the two polls, or a zero-value prev) is
// diffed against a zero Stats, so its delta equals its current
// cumulative value. Names present only in prev are dropped: the delta
// describes what s can still see.
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	d := Snapshot{Primitives: make(map[string]reactive.Stats, len(s.Primitives))}
	for name, cur := range s.Primitives {
		d.Primitives[name] = cur.Sub(prev.Primitives[name])
	}
	return d
}

// Publish registers live snapshots of reg as the expvar variable name,
// alongside the standard memstats/cmdline exports on /debug/vars:
//
//	var registry reactivehttp.Registry
//	registry.Register("routes", rw)
//	reactivehttp.Publish("reactive", &registry)
//
// Like expvar.Publish, it panics if name is already published, so call
// it once per process per name.
func Publish(name string, reg *Registry) {
	expvar.Publish(name, expvar.Func(func() any { return reg.Snapshot() }))
}

// PrimitiveReport is one primitive's entry in a Handler response: the
// current cumulative Stats, the delta since the handler's previous
// poll, the switch rate that delta implies, and the cumulative time the
// primitive has been observed resident in each mode.
type PrimitiveReport struct {
	reactive.Stats
	// Delta is Stats.Sub of the previous poll's snapshot (zero on the
	// first poll, or for a primitive first seen this poll): the protocol
	// changes this interval, and the current waiter depth.
	Delta reactive.Stats `json:"delta"`
	// SwitchRate is Delta.Switches (plus the reader engine's, for
	// RWMutex) divided by the poll interval, in switches per second; 0
	// on the first poll.
	SwitchRate float64 `json:"switch_rate_per_sec"`
	// Residency maps mode name → total seconds the primitive was
	// observed in that mode, attributing each poll interval to the mode
	// seen at the interval's start. Resolution is therefore the polling
	// interval — poll as fast as the residency you want to resolve.
	Residency map[string]float64 `json:"residency_seconds"`
}

// Report is a Handler response: the seconds since the handler's
// previous poll (0 on the first) and one PrimitiveReport per registered
// primitive.
type Report struct {
	IntervalSeconds float64                    `json:"interval_seconds"`
	Primitives      map[string]PrimitiveReport `json:"primitives"`
}

// Handler serves poll-to-poll telemetry for a Registry over HTTP. Each
// GET returns a Report computed against the previous request's
// snapshot, so pointing a scraper at it yields rates and residency with
// no client-side state. Concurrent requests are serialized; state
// belongs to the handler, so run one handler per scrape consumer (or
// share one and accept interleaved intervals).
type Handler struct {
	reg *Registry
	now func() time.Time // injectable for deterministic tests

	mu        sync.Mutex
	last      time.Time
	prev      Snapshot
	residency map[string]map[string]time.Duration
}

// NewHandler builds a Handler for reg.
func NewHandler(reg *Registry) *Handler {
	return &Handler{reg: reg, now: time.Now, residency: make(map[string]map[string]time.Duration)}
}

// Handle mounts a new Handler for reg on mux at /debug/reactive and
// returns it. A nil mux uses http.DefaultServeMux, mirroring the
// net/http/pprof convention.
func Handle(mux *http.ServeMux, reg *Registry) *Handler {
	h := NewHandler(reg)
	if mux == nil {
		mux = http.DefaultServeMux
	}
	mux.Handle("/debug/reactive", h)
	return h
}

// report advances the handler's poll state and builds the response.
func (h *Handler) report() Report {
	h.mu.Lock()
	defer h.mu.Unlock()

	now := h.now()
	cur := h.reg.Snapshot()
	var interval time.Duration
	first := h.last.IsZero()
	if !first {
		interval = now.Sub(h.last)
	}

	// Attribute the elapsed interval to the mode each primitive was in
	// at the previous poll.
	if !first && interval > 0 {
		for name, prev := range h.prev.Primitives {
			modes := h.residency[name]
			if modes == nil {
				modes = make(map[string]time.Duration)
				h.residency[name] = modes
			}
			modes[prev.Mode.String()] += interval
		}
	}

	delta := cur.Sub(h.prev)
	rep := Report{
		IntervalSeconds: interval.Seconds(),
		Primitives:      make(map[string]PrimitiveReport, len(cur.Primitives)),
	}
	for name, stats := range cur.Primitives {
		d := delta.Primitives[name]
		if first {
			// No previous poll: no delta to report yet.
			d = reactive.Stats{Mode: stats.Mode, Waiters: stats.Waiters}
			if stats.Readers != nil {
				d.Readers = &reactive.ReaderStats{Mode: stats.Readers.Mode, Shards: stats.Readers.Shards}
			}
		}
		var rate float64
		if interval > 0 {
			switches := d.Switches
			if d.Readers != nil {
				switches += d.Readers.Switches
			}
			rate = float64(switches) / interval.Seconds()
		}
		res := make(map[string]float64, len(h.residency[name]))
		for mode, dur := range h.residency[name] {
			res[mode] = dur.Seconds()
		}
		rep.Primitives[name] = PrimitiveReport{
			Stats:      stats,
			Delta:      d,
			SwitchRate: rate,
			Residency:  res,
		}
	}

	h.last = now
	h.prev = cur
	return rep
}

// ServeHTTP implements http.Handler, answering every request with the
// current Report as JSON.
func (h *Handler) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(h.report())
}
