package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// Spans are recorded from the benchmark's own files, around the calls it
// makes into each layer; spans inside the library are a later change. They
// stay in memory and are written once, when the run ends.
//
// Track 0 is the driver goroutine (phases, cells, slices, Spec.Run calls);
// track 1+g is worker goroutine g of the slice that was running (sampled
// op batches, sampled service requests and the service calls under them).
// A span's self time is its duration minus what its children on the same
// track cover, so the driver track's self times add up to the traced wall
// time exactly, and a worker track's add up to the time it had a span open.

type span struct {
	Name   string `json:"name"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1: none
	Track  int32  `json:"track"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
	Req    uint64 `json:"req,omitempty"` // request id shared by one request's spans
}

type tracer struct {
	t0      time.Time
	spans   []span
	stack   []int32 // open driver spans
	dropped int     // worker spans lost to full buffers
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// span opens a driver-track span and returns the function that closes it.
// A nil tracer records nothing, so call sites need no guard.
func (t *tracer) span(name string) func() {
	if t == nil {
		return func() {}
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: int64(time.Since(t.t0))})
	t.stack = append(t.stack, id)
	return func() {
		t.spans[id].End = int64(time.Since(t.t0))
		t.stack = t.stack[:len(t.stack)-1]
	}
}

// workerTrace is one worker goroutine's private span buffer for one slice;
// the driver merges it when the slice has ended, so workers never share
// a buffer. It is bounded: a full buffer counts what it drops.
type workerTrace struct {
	t0      time.Time
	spans   []span // Parent is a local index, or -1 for "the slice span"
	dropped int
}

const workerSpanCap = 4096

func (t *tracer) workers(g int) []*workerTrace {
	if t == nil {
		return nil
	}
	ws := make([]*workerTrace, g)
	for i := range ws {
		ws[i] = &workerTrace{t0: t.t0, spans: make([]span, 0, workerSpanCap)}
	}
	return ws
}

// add records a finished span and returns its local index for children to
// name as their parent (-1 when the buffer was full).
func (w *workerTrace) add(name string, start, end time.Time, parent int32, req uint64) int32 {
	if len(w.spans) == cap(w.spans) {
		w.dropped++
		return -1
	}
	w.spans = append(w.spans, span{
		Name: name, Parent: parent, Req: req,
		Start: int64(start.Sub(w.t0)), End: int64(end.Sub(w.t0)),
	})
	return int32(len(w.spans) - 1)
}

// merge appends the workers' spans under the innermost open driver span.
func (t *tracer) merge(ws []*workerTrace) {
	if t == nil {
		return
	}
	sliceSpan := int32(-1)
	if n := len(t.stack); n > 0 {
		sliceSpan = t.stack[n-1]
	}
	for g, w := range ws {
		base := int32(len(t.spans))
		for _, s := range w.spans {
			s.ID = int32(len(t.spans))
			s.Track = int32(1 + g)
			if s.Parent >= 0 {
				s.Parent += base
			} else {
				s.Parent = sliceSpan
			}
			t.spans = append(t.spans, s)
		}
		t.dropped += w.dropped
	}
}

// selfTimes returns each span's self time: its duration minus the union of
// the intervals its same-track children cover (clipped to the span).
func selfTimes(spans []span) []int64 {
	kids := make(map[int32][]int32)
	for _, s := range spans {
		if s.Parent >= 0 && int(s.Parent) < len(spans) && spans[s.Parent].Track == s.Track {
			kids[s.Parent] = append(kids[s.Parent], s.ID)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ks := kids[s.ID]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start < spans[ks[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range ks {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// selfRow aggregates self time by span name, driver and worker tracks
// apart.
type selfRow struct {
	Name    string `json:"name"`
	Workers bool   `json:"worker_tracks"`
	Count   int    `json:"count"`
	TotalNs int64  `json:"total_ns"`
	SelfNs  int64  `json:"self_ns"`
}

type traceDoc struct {
	WallNs        int64     `json:"wall_ns"`            // the root span's duration
	DriverSelfNs  int64     `json:"driver_self_sum_ns"` // sum of driver-track self times
	DroppedSpans  int       `json:"dropped_spans"`
	SelfByName    []selfRow `json:"self_by_name"`
	Spans         []span    `json:"spans"`
	SampleEvery   int       `json:"request_sample_every"`
	BatchEvery    int       `json:"batch_sample_every"`
	TracksComment string    `json:"tracks"`
}

func (t *tracer) doc() traceDoc {
	self := selfTimes(t.spans)
	type key struct {
		name    string
		workers bool
	}
	agg := make(map[key]*selfRow)
	var d traceDoc
	for i, s := range t.spans {
		if s.Parent < 0 && s.Track == 0 {
			d.WallNs += s.End - s.Start
		}
		if s.Track == 0 {
			d.DriverSelfNs += self[i]
		}
		k := key{s.Name, s.Track != 0}
		r := agg[k]
		if r == nil {
			r = &selfRow{Name: s.Name, Workers: k.workers}
			agg[k] = r
		}
		r.Count++
		r.TotalNs += s.End - s.Start
		r.SelfNs += self[i]
	}
	for _, r := range agg {
		d.SelfByName = append(d.SelfByName, *r)
	}
	sort.Slice(d.SelfByName, func(a, b int) bool {
		x, y := d.SelfByName[a], d.SelfByName[b]
		if x.Workers != y.Workers {
			return !x.Workers
		}
		return x.SelfNs > y.SelfNs
	})
	d.DroppedSpans = t.dropped
	d.Spans = t.spans
	d.SampleEvery = latencySampleEvery
	d.BatchEvery = batchTraceEvery
	d.TracksComment = "0 = driver goroutine; 1+g = worker goroutine g of the enclosing slice"
	return d
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
