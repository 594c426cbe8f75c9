package loadsvc

import (
	"fmt"
	"time"

	"repro/internal/stats"
)

// Report is one scenario run's result set: request accounting, the
// open-loop latency quantiles, the service-side aggregates, and the
// per-primitive telemetry deltas scraped over HTTP. It is the JSON row
// the bench_tail.json "scenarios" section carries.
type Report struct {
	Scenario        string  `json:"scenario"`
	Seed            uint64  `json:"seed"`
	RatePerSec      int     `json:"rate_per_sec"`
	DurationSeconds float64 `json:"duration_seconds"`
	Workers         int     `json:"workers"`
	Virtual         bool    `json:"virtual,omitempty"`

	Requests       int64 `json:"requests"`
	Fresh          int64 `json:"fresh"`
	Stale          int64 `json:"stale"`
	Cancelled      int64 `json:"cancelled"`
	Errors         int64 `json:"errors"`
	WorkersSpawned int64 `json:"workers_spawned"`
	// LostWaiters is nonzero only when the stranded-waiter guard fired:
	// some worker was still blocked in a primitive long after the last
	// arrival. It must be 0 on every healthy run; cmd/loadgen exits
	// nonzero otherwise.
	LostWaiters int `json:"lost_waiters"`

	CancelledRate float64 `json:"cancelled_rate"`
	StaleRate     float64 `json:"stale_rate"`

	// Latency quantiles over completed (fresh + stale) requests,
	// microseconds, measured open-loop from each request's scheduled
	// arrival.
	P50Us  float64 `json:"p50_us"`
	P99Us  float64 `json:"p99_us"`
	P999Us float64 `json:"p999_us"`
	MaxUs  float64 `json:"max_us"`

	// HitCount and PeakLatencyNs are read back from the service's own
	// reactive aggregates (Counter and max-FetchOp) after the run.
	HitCount      int64 `json:"hit_count"`
	PeakLatencyNs int64 `json:"peak_latency_ns"`

	// Primitives holds the per-primitive Stats.Sub deltas for the run,
	// scraped through /debug/reactive.
	Primitives map[string]PrimitiveDelta `json:"primitives,omitempty"`

	// Sub holds per-GOMAXPROCS rows for sweep scenarios.
	Sub []SubReport `json:"sub,omitempty"`

	// Hist is the merged latency histogram (nanosecond log₂ buckets);
	// quantiles above derive from it. Not serialized: the JSON schema
	// carries the quantiles, the tests compare the buckets.
	Hist *stats.WaitProfile `json:"-"`
}

// PrimitiveDelta summarizes one primitive's scraped telemetry over the
// run: the final mode, the protocol switches committed during the run
// (a Stats.Sub delta), parked waiters at scrape time, and the reader
// engine's counterpart values for RWMutex.
type PrimitiveDelta struct {
	Mode           string `json:"mode"`
	Switches       uint64 `json:"switches"`
	Waiters        int    `json:"waiters"`
	ReaderMode     string `json:"reader_mode,omitempty"`
	ReaderSwitches uint64 `json:"reader_switches,omitempty"`
}

// SubReport is one slice of a sweep scenario: a GOMAXPROCS setting
// (Procs) or a forced routing-map protocol (Mode), whichever the sweep
// varies.
type SubReport struct {
	Procs    int     `json:"procs,omitempty"`
	Mode     string  `json:"mode,omitempty"`
	Requests int64   `json:"requests"`
	P50Us    float64 `json:"p50_us"`
	P99Us    float64 `json:"p99_us"`
	P999Us   float64 `json:"p999_us"`
	MaxUs    float64 `json:"max_us"`
}

func newReport(scenario string, o Options) *Report {
	return &Report{
		Scenario:        scenario,
		RatePerSec:      o.Rate,
		DurationSeconds: o.Duration.Seconds(),
		Workers:         o.Workers,
		Virtual:         o.Virtual,
		Hist:            &stats.WaitProfile{Name: scenario},
	}
}

// absorb folds one worker lane's tally into the report.
func (r *Report) absorb(t *tally) {
	r.Fresh += t.counts[classFresh]
	r.Stale += t.counts[classStale]
	r.Cancelled += t.counts[classCancelled]
	r.Errors += t.counts[classError]
	r.WorkersSpawned += t.spawned
	for i, c := range t.hist.Buckets {
		r.Hist.Buckets[i] += c
	}
	if m := t.hist.Sample.Max(); m > r.MaxUs {
		r.MaxUs = m // still in ns here; finish converts
	}
}

// merge folds a completed sub-run into an aggregate report (sweeps).
func (r *Report) merge(sub *Report) {
	r.Seed = sub.Seed
	r.Fresh += sub.Fresh
	r.Stale += sub.Stale
	r.Cancelled += sub.Cancelled
	r.Errors += sub.Errors
	r.WorkersSpawned += sub.WorkersSpawned
	r.LostWaiters += sub.LostWaiters
	r.HitCount += sub.HitCount
	if sub.PeakLatencyNs > r.PeakLatencyNs {
		r.PeakLatencyNs = sub.PeakLatencyNs
	}
	for i, c := range sub.Hist.Buckets {
		r.Hist.Buckets[i] += c
	}
	if sub.MaxUs*1000 > r.MaxUs { // sub is finished (µs); r.MaxUs still ns
		r.MaxUs = sub.MaxUs * 1000
	}
	if r.Primitives == nil {
		r.Primitives = make(map[string]PrimitiveDelta, len(sub.Primitives))
	}
	for name, d := range sub.Primitives {
		prev := r.Primitives[name]
		prev.Mode, prev.ReaderMode = d.Mode, d.ReaderMode
		prev.Switches += d.Switches
		prev.ReaderSwitches += d.ReaderSwitches
		prev.Waiters = d.Waiters
		r.Primitives[name] = prev
	}
}

// finish derives the counters and quantiles that depend on the full
// merged histogram. MaxUs is accumulated in nanoseconds during
// absorb/merge and converted here.
func (r *Report) finish() {
	r.Requests = r.Fresh + r.Stale + r.Cancelled + r.Errors
	if r.Requests > 0 {
		r.CancelledRate = float64(r.Cancelled) / float64(r.Requests)
		r.StaleRate = float64(r.Stale) / float64(r.Requests)
	}
	const us = 1000.0
	r.MaxUs /= us
	// A quantile interpolated inside the top bucket can land past the
	// true maximum (the bucket's ceiling is its upper bound); clamp so
	// the reported trajectory stays monotone: p50 ≤ p99 ≤ p999 ≤ max.
	clamp := func(v float64) float64 {
		if r.MaxUs > 0 && v > r.MaxUs {
			return r.MaxUs
		}
		return v
	}
	r.P50Us = clamp(r.Hist.Quantile(0.5) / us)
	r.P99Us = clamp(r.Hist.Quantile(0.99) / us)
	r.P999Us = clamp(r.Hist.Quantile(0.999) / us)
}

// TailRow is one measurement of the tail-latency trajectory: a
// slash-separated name and a value in microseconds — a flat unit two
// documents can be diffed by.
type TailRow struct {
	Name string  `json:"name"`
	Us   float64 `json:"us"`
}

// TailRows flattens the report's quantiles into gate rows:
// scenario/p50, /p99, /p999, /max, plus per-slice rows for sweep
// sub-reports (scenario/procs=N/p99 for GOMAXPROCS sweeps,
// scenario/mode=epoch/p99 for routing-map protocol sweeps).
func (r *Report) TailRows() []TailRow {
	rows := []TailRow{
		{r.Scenario + "/p50", r.P50Us},
		{r.Scenario + "/p99", r.P99Us},
		{r.Scenario + "/p999", r.P999Us},
		{r.Scenario + "/max", r.MaxUs},
	}
	for _, s := range r.Sub {
		prefix := fmt.Sprintf("%s/procs=%d/", r.Scenario, s.Procs)
		if s.Mode != "" {
			prefix = fmt.Sprintf("%s/mode=%s/", r.Scenario, s.Mode)
		}
		rows = append(rows,
			TailRow{prefix + "p50", s.P50Us},
			TailRow{prefix + "p99", s.P99Us},
			TailRow{prefix + "p999", s.P999Us},
			TailRow{prefix + "max", s.MaxUs},
		)
	}
	return rows
}

// TailDoc is the bench_tail.json document: the rich per-scenario
// reports plus the flat µs rows. Schema names the layout
// so future format changes stay detectable.
type TailDoc struct {
	Schema    string    `json:"schema"`
	Scenarios []*Report `json:"scenarios"`
	Tail      []TailRow `json:"tail"`
}

// TailSchema is the current bench_tail.json schema tag.
const TailSchema = "bench_tail/v1"

// BuildTailDoc assembles the document for a set of scenario reports.
func BuildTailDoc(reports []*Report) *TailDoc {
	doc := &TailDoc{Schema: TailSchema, Scenarios: reports}
	for _, r := range reports {
		doc.Tail = append(doc.Tail, r.TailRows()...)
	}
	return doc
}

// GuardDefault is the default stranded-waiter guard, exported for
// cmd/loadgen's flag help.
const GuardDefault = 10 * time.Second
