package reactivehttp

import (
	"encoding/json"
	"expvar"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/reactive"
)

func TestRegisterPanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	var reg Registry
	expectPanic("empty name", func() { reg.Register("", &reactive.Mutex{}) })
	expectPanic("nil source", func() { reg.Register("m", nil) })
	reg.Register("m", &reactive.Mutex{})
	expectPanic("duplicate", func() { reg.Register("m", &reactive.Mutex{}) })
}

func TestRegistrySnapshot(t *testing.T) {
	var reg Registry
	m := reactive.New(reactive.WithInitialMode(reactive.ModePark))
	rw := reactive.NewRWMutex()
	c := reactive.NewCounter()
	reg.Register("mutex", m)
	reg.Register("rwmutex", rw)
	reg.Register("counter", c)

	if got, want := reg.Names(), []string{"counter", "mutex", "rwmutex"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}

	snap := reg.Snapshot()
	if len(snap.Primitives) != 3 {
		t.Fatalf("snapshot has %d primitives, want 3", len(snap.Primitives))
	}
	if s := snap.Primitives["mutex"]; s.Mode != reactive.ModePark || s.Switches != 1 {
		t.Fatalf("mutex snapshot = %+v", s)
	}
	if s := snap.Primitives["rwmutex"]; s.Readers == nil {
		t.Fatal("rwmutex snapshot must carry ReaderStats")
	}
	if s := snap.Primitives["counter"]; s.Mode != reactive.ModeCAS {
		t.Fatalf("counter snapshot = %+v", s)
	}
}

func TestSnapshotSub(t *testing.T) {
	cur := Snapshot{Primitives: map[string]reactive.Stats{
		"a": {Mode: reactive.ModePark, Switches: 5},
		"b": {Mode: reactive.ModeCAS, Switches: 2},
	}}
	prev := Snapshot{Primitives: map[string]reactive.Stats{
		"a":    {Mode: reactive.ModeSpin, Switches: 3},
		"gone": {Switches: 9},
	}}
	d := cur.Sub(prev)
	if s := d.Primitives["a"]; s.Switches != 2 || s.Mode != reactive.ModePark {
		t.Fatalf(`delta["a"] = %+v`, s)
	}
	// Missing from prev: diffed against zero.
	if s := d.Primitives["b"]; s.Switches != 2 {
		t.Fatalf(`delta["b"] = %+v`, s)
	}
	// Present only in prev: dropped.
	if _, ok := d.Primitives["gone"]; ok {
		t.Fatal("names absent from the newer snapshot must not appear in the delta")
	}
}

// fakeClock advances a Handler deterministically.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestHandler(reg *Registry) (*Handler, *fakeClock) {
	h := NewHandler(reg)
	clk := &fakeClock{t: time.Unix(1000, 0)}
	h.now = clk.now
	return h, clk
}

func TestHandlerDeltasAndRates(t *testing.T) {
	var reg Registry
	m := reactive.New()
	reg.Register("mutex", m)
	h, clk := newTestHandler(&reg)

	// First poll: no interval, no delta.
	rep := h.report()
	if rep.IntervalSeconds != 0 {
		t.Fatalf("first poll interval = %v, want 0", rep.IntervalSeconds)
	}
	pr := rep.Primitives["mutex"]
	if pr.Delta.Switches != 0 || pr.SwitchRate != 0 {
		t.Fatalf("first poll must not report a delta: %+v", pr)
	}
	if pr.Stats.Mode != reactive.ModeSpin {
		t.Fatalf("mutex mode = %v, want spin", pr.Stats.Mode)
	}

	// Force one switch, poll 2 simulated seconds later.
	forceMutexPark(m)
	clk.advance(2 * time.Second)
	rep = h.report()
	if rep.IntervalSeconds != 2 {
		t.Fatalf("interval = %v, want 2", rep.IntervalSeconds)
	}
	pr = rep.Primitives["mutex"]
	if pr.Stats.Mode != reactive.ModePark {
		t.Fatalf("mode = %v, want park", pr.Stats.Mode)
	}
	if pr.Delta.Switches != 1 {
		t.Fatalf("delta switches = %d, want 1", pr.Delta.Switches)
	}
	if pr.SwitchRate != 0.5 {
		t.Fatalf("switch rate = %v, want 0.5", pr.SwitchRate)
	}
	// The 2s interval is attributed to the mode at its start: spin.
	if pr.Residency["spin"] != 2 || pr.Residency["park"] != 0 {
		t.Fatalf("residency = %v, want spin:2", pr.Residency)
	}

	// Third poll: residency accrues to park now.
	clk.advance(3 * time.Second)
	rep = h.report()
	pr = rep.Primitives["mutex"]
	if pr.Residency["spin"] != 2 || pr.Residency["park"] != 3 {
		t.Fatalf("residency = %v, want spin:2 park:3", pr.Residency)
	}
	if pr.Delta.Switches != 0 || pr.SwitchRate != 0 {
		t.Fatalf("quiet interval must report a zero delta: %+v", pr)
	}
}

// forceMutexPark drives a mutex from spin to park through the public
// API: hold the lock while several goroutines spin against it, then
// release — the handoff chain records the contended-acquisition streak
// that trips the switch. (A single spinner would not do: the holder's
// own uncontended Lock resets the streak each round.)
func forceMutexPark(m *reactive.Mutex) {
	for m.Stats().Mode != reactive.ModePark {
		m.Lock()
		var wg sync.WaitGroup
		for i := 0; i < reactive.DefaultSpinFailLimit+1; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				m.Lock()
				m.Unlock()
			}()
		}
		// Give the spinners time to record failed attempts.
		time.Sleep(time.Millisecond)
		m.Unlock()
		wg.Wait()
	}
}

func TestHandlerReaderEngineRate(t *testing.T) {
	// RWMutex's reader registration switches count toward the switch
	// rate, and the delta carries the reader sub-struct.
	var reg Registry
	rw := reactive.NewRWMutex(reactive.WithInitialReaderMode(reactive.ModeSharded))
	reg.Register("routes", rw)
	h, clk := newTestHandler(&reg)
	h.report()

	// Drive the registration engine back down: quiet writer drains.
	for rw.Stats().Readers.Mode != reactive.ModeCAS {
		rw.Lock()
		rw.Unlock()
	}
	clk.advance(1 * time.Second)
	rep := h.report()
	pr := rep.Primitives["routes"]
	if pr.Delta.Readers == nil || pr.Delta.Readers.Switches != 1 {
		t.Fatalf("delta readers = %+v, want one registration switch", pr.Delta.Readers)
	}
	if pr.SwitchRate != 1 {
		t.Fatalf("switch rate = %v, want 1 (reader switches count)", pr.SwitchRate)
	}
}

func TestHandlerEpochGraceDeltas(t *testing.T) {
	// Grace-period counters of an epoch-registered RWMutex flow through
	// the scrape surface: cumulative in Stats, per-interval in Delta,
	// and named in the JSON encoding.
	var reg Registry
	rw := reactive.NewRWMutex(reactive.WithInitialReaderMode(reactive.ModeEpoch))
	reg.Register("routes", rw)
	h, clk := newTestHandler(&reg)
	h.report()

	// Three quiet grace periods (writer acquisitions in epoch mode with
	// no reader online). Fewer than the demotion streak, so the
	// registration protocol stays epoch.
	for i := 0; i < 3; i++ {
		rw.Lock()
		rw.Unlock()
	}
	clk.advance(1 * time.Second)
	rep := h.report()
	pr := rep.Primitives["routes"]
	if pr.Stats.Readers == nil || pr.Stats.Readers.Mode != reactive.ModeEpoch {
		t.Fatalf("stats readers = %+v, want epoch mode", pr.Stats.Readers)
	}
	if pr.Delta.Readers == nil || pr.Delta.Readers.Graces != 3 || pr.Delta.Readers.QuietGraces != 3 {
		t.Fatalf("delta readers = %+v, want 3 graces, 3 quiet", pr.Delta.Readers)
	}
	b, err := json.Marshal(pr.Stats.Readers)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"graces":3`, `"quiet_graces":3`, `"mode":"epoch"`} {
		if !strings.Contains(string(b), field) {
			t.Fatalf("ReaderStats JSON %s missing %s", b, field)
		}
	}
}

func TestServeHTTP(t *testing.T) {
	var reg Registry
	reg.Register("counter", reactive.NewCounter(reactive.WithInitialMode(reactive.ModeSharded)))
	mux := http.NewServeMux()
	h := Handle(mux, &reg)
	if h == nil {
		t.Fatal("Handle returned nil")
	}

	srv := httptest.NewServer(mux)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/reactive")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json; charset=utf-8" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var rep Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatalf("response is not valid JSON: %v", err)
	}
	pr, ok := rep.Primitives["counter"]
	if !ok {
		t.Fatalf("report missing counter: %+v", rep)
	}
	if pr.Stats.Mode != reactive.ModeSharded || pr.Stats.Switches != 1 {
		t.Fatalf("counter report = %+v", pr.Stats)
	}
}

var publishOnce sync.Once

func TestPublishExpvar(t *testing.T) {
	// expvar names are process-global and Publish panics on reuse, so
	// publish exactly once even under -count=N.
	publishOnce.Do(func() {
		var reg Registry
		reg.Register("mutex", &reactive.Mutex{})
		Publish("reactive-test-publish", &reg)
	})
	v := expvar.Get("reactive-test-publish")
	if v == nil {
		t.Fatal("expvar variable not published")
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(v.String()), &snap); err != nil {
		t.Fatalf("expvar value is not valid Snapshot JSON: %v", err)
	}
	if s, ok := snap.Primitives["mutex"]; !ok || s.Mode != reactive.ModeSpin {
		t.Fatalf("expvar snapshot = %+v", snap)
	}
}
