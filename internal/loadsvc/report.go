package loadsvc

import "repro/internal/stats"

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

	// Sub holds one row per variant for multi-variant scenarios.
	Sub []SubReport `json:"sub,omitempty"`

	// Hist is the merged latency histogram (nanosecond log₂ buckets);
	// quantiles above derive from it. Not serialized: the JSON schema
	// carries the quantiles, the tests compare the buckets.
	Hist *stats.WaitProfile `json:"-"`

	// maxNs is the largest completed latency, nanoseconds like Hist;
	// finish derives MaxUs from it, so MaxUs is microseconds only.
	maxNs float64
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

// SubReport is one variant's slice of a multi-variant scenario, tagged
// with what the variant set: a GOMAXPROCS setting (Procs) or a forced
// routing-map protocol (Mode).
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
	r.maxNs = max(r.maxNs, t.hist.Sample.Max())
}

// merge folds one variant's run into the scenario's report.
func (r *Report) merge(sub *Report) {
	r.Seed = sub.Seed
	r.Fresh += sub.Fresh
	r.Stale += sub.Stale
	r.Cancelled += sub.Cancelled
	r.Errors += sub.Errors
	r.WorkersSpawned += sub.WorkersSpawned
	r.LostWaiters += sub.LostWaiters
	r.HitCount += sub.HitCount
	r.PeakLatencyNs = max(r.PeakLatencyNs, sub.PeakLatencyNs)
	for i, c := range sub.Hist.Buckets {
		r.Hist.Buckets[i] += c
	}
	r.maxNs = max(r.maxNs, sub.maxNs)
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
// merged histogram.
func (r *Report) finish() {
	r.Requests = r.Fresh + r.Stale + r.Cancelled + r.Errors
	if r.Requests > 0 {
		r.CancelledRate = float64(r.Cancelled) / float64(r.Requests)
		r.StaleRate = float64(r.Stale) / float64(r.Requests)
	}
	const us = 1000.0
	r.MaxUs = r.maxNs / us
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

// TailDoc is the bench_tail.json document: one report per scenario
// run. Schema names the layout so format changes stay detectable.
type TailDoc struct {
	Schema    string    `json:"schema"`
	Scenarios []*Report `json:"scenarios"`
}

// TailSchema is the current bench_tail.json schema tag.
const TailSchema = "bench_tail/v2"
