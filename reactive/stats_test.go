package reactive

import (
	"encoding/json"
	"sync"
	"testing"

	"repro/reactive/modal"
)

// TestModeTextRoundTrip: every defined mode survives MarshalText →
// UnmarshalText, and a value past the last mode marshals to a name
// UnmarshalText rejects instead of one that reads back as another mode.
func TestModeTextRoundTrip(t *testing.T) {
	for _, m := range []Mode{ModeSpin, ModePark, ModeCAS, ModeSharded, ModeCombining, ModeEpoch, ModeLocked, Mode(7)} {
		b, err := m.MarshalText()
		if err != nil {
			t.Fatalf("MarshalText(%d): %v", uint32(m), err)
		}
		if string(b) != m.String() {
			t.Fatalf("MarshalText(%d) = %q, want %q", uint32(m), b, m.String())
		}
		var back Mode
		err = back.UnmarshalText(b)
		if valid := m <= ModeLocked; valid != (err == nil) {
			t.Fatalf("UnmarshalText(%q) of mode %d: err %v, want an error iff the mode is undefined", b, uint32(m), err)
		}
		if err == nil && back != m {
			t.Fatalf("round trip %d -> %q -> %d", uint32(m), b, uint32(back))
		}
	}
	var m Mode
	if err := m.UnmarshalText([]byte("warp")); err == nil {
		t.Fatal("UnmarshalText must reject an unknown mode name")
	}
}

func TestStatsJSON(t *testing.T) {
	s := Stats{Mode: ModePark, Switches: 3, Waiters: 2}
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"mode":"park","switches":3,"waiters":2}`
	if string(b) != want {
		t.Fatalf("Stats JSON = %s, want %s", b, want)
	}
	s.Readers = &ReaderStats{Mode: ModeSharded, Switches: 1, Shards: 4, Graces: 6, QuietGraces: 5}
	b, err = json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	want = `{"mode":"park","switches":3,"waiters":2,"readers":{"mode":"sharded","switches":1,"shards":4,"graces":6,"quiet_graces":5}}`
	if string(b) != want {
		t.Fatalf("Stats JSON with readers = %s, want %s", b, want)
	}
	var back Stats
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Mode != ModePark || back.Switches != 3 || back.Waiters != 2 ||
		back.Readers == nil || *back.Readers != *s.Readers {
		t.Fatalf("Stats JSON round trip = %+v", back)
	}
}

func TestStatsSubFields(t *testing.T) {
	cur := Stats{Mode: ModePark, Switches: 7, Waiters: 3}
	prev := Stats{Mode: ModeSpin, Switches: 2, Waiters: 9}
	d := cur.Sub(prev)
	if d.Mode != ModePark {
		t.Fatalf("Mode is a gauge; delta mode = %v, want %v", d.Mode, ModePark)
	}
	if d.Switches != 5 {
		t.Fatalf("Switches is monotonic; delta = %d, want 5", d.Switches)
	}
	if d.Waiters != 3 {
		t.Fatalf("Waiters is a gauge; delta = %d, want 3", d.Waiters)
	}
	if d.Readers != nil {
		t.Fatal("no reader engine on either side; delta Readers must be nil")
	}
}

func TestStatsSubZeroPrevIsIdentity(t *testing.T) {
	cur := Stats{Mode: ModeCombining, Switches: 11, Waiters: 1,
		Readers: &ReaderStats{Mode: ModeSharded, Switches: 4, Shards: 8}}
	d := cur.Sub(Stats{})
	if d.Mode != cur.Mode || d.Switches != cur.Switches || d.Waiters != cur.Waiters {
		t.Fatalf("Sub(zero) = %+v, want %+v", d, cur)
	}
	if d.Readers == nil || *d.Readers != *cur.Readers {
		t.Fatalf("Sub(zero) Readers = %+v, want %+v", d.Readers, cur.Readers)
	}
	if d.Readers == cur.Readers {
		t.Fatal("Sub must allocate a fresh Readers pointer, not alias the operand")
	}
}

func TestStatsSubSwitchesWraps(t *testing.T) {
	// Unsigned subtraction keeps a delta correct across counter wrap.
	cur := Stats{Switches: 2}
	prev := Stats{Switches: ^uint64(0) - 1} // two before wrap
	if d := cur.Sub(prev); d.Switches != 4 {
		t.Fatalf("wrapped delta = %d, want 4", d.Switches)
	}
}

func TestStatsSubReaders(t *testing.T) {
	// s.Readers nil: delta Readers stays nil even if prev has one.
	cur := Stats{Switches: 5}
	prev := Stats{Switches: 1, Readers: &ReaderStats{Switches: 3}}
	if d := cur.Sub(prev); d.Readers != nil {
		t.Fatalf("delta Readers = %+v, want nil when s.Readers is nil", d.Readers)
	}

	// s.Readers present, prev.Readers nil: prev treated as zero.
	cur = Stats{Readers: &ReaderStats{Mode: ModeSharded, Switches: 6, Shards: 4}}
	d := cur.Sub(Stats{Switches: 1})
	if d.Readers == nil || d.Readers.Switches != 6 || d.Readers.Mode != ModeSharded || d.Readers.Shards != 4 {
		t.Fatalf("delta Readers = %+v, want zero-prev semantics", d.Readers)
	}

	// Both present: Switches subtracts, Mode/Shards keep the newer value.
	prev = Stats{Readers: &ReaderStats{Mode: ModeCAS, Switches: 2, Shards: 0}}
	d = cur.Sub(prev)
	if d.Readers.Switches != 4 || d.Readers.Mode != ModeSharded || d.Readers.Shards != 4 {
		t.Fatalf("delta Readers = %+v, want {sharded 4 4}", d.Readers)
	}
	if d.Readers == cur.Readers || d.Readers == prev.Readers {
		t.Fatal("Sub must not alias either operand's Readers")
	}
}

func TestReaderStatsSub(t *testing.T) {
	cur := ReaderStats{Mode: ModeEpoch, Switches: 9, Shards: 16, Graces: 20, QuietGraces: 7}
	prev := ReaderStats{Mode: ModeCAS, Switches: 4, Shards: 0, Graces: 12, QuietGraces: 3}
	d := cur.Sub(prev)
	if d != (ReaderStats{Mode: ModeEpoch, Switches: 5, Shards: 16, Graces: 8, QuietGraces: 4}) {
		t.Fatalf("ReaderStats.Sub = %+v", d)
	}
	if cur.Sub(ReaderStats{}) != cur {
		t.Fatal("zero prev must be the identity")
	}
}

// TestStatsPollingRace polls Stats (and Sub and the JSON encoding) on all
// four primitives concurrently with forced mode switches in both
// directions. Run under -race this checks that the observability surface
// reads only atomically-published state.
func TestStatsPollingRace(t *testing.T) {
	const (
		flips = 200
		polls = 400
	)
	var wg sync.WaitGroup

	poll := func(stats func() Stats) {
		defer wg.Done()
		prev := stats()
		for i := 0; i < polls; i++ {
			cur := stats()
			d := cur.Sub(prev)
			if _, err := json.Marshal(d); err != nil {
				t.Error(err)
				return
			}
			prev = cur
		}
	}

	// Mutex: force spin→park via contended-acquire streaks; park→spin via
	// uncontended-unlock streaks.
	m := New()
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < flips; i++ {
			for j := 0; j < DefaultSpinFailLimit; j++ {
				m.noteSpinAcquire(1)
			}
			for j := 0; j < DefaultEmptyLimit; j++ {
				m.Lock()
				m.Unlock()
			}
		}
	}()
	go poll(m.Stats)

	// Counter: force cas→sharded via contended-add streaks; sharded→cas
	// via idle reconciling reads.
	c := NewCounter()
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < flips; i++ {
			for j := 0; j < DefaultSpinFailLimit; j++ {
				c.noteContendedAdd()
			}
			for j := 0; j < DefaultEmptyLimit; j++ {
				c.Add(1)
				c.Load()
			}
		}
	}()
	go poll(c.Stats)

	// FetchOp: same chain, one protocol further (combining included).
	f := NewFetchOp(func(cur, arg int64) int64 { return cur + arg }, 0)
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < flips; i++ {
			for j := 0; j < 2*DefaultSpinFailLimit; j++ {
				f.observe(fCAS, modal.Busy)
			}
			for j := 0; j < 2*DefaultEmptyLimit; j++ {
				f.Apply(1)
				f.Value()
			}
		}
	}()
	go poll(f.Stats)

	// RWMutex: flip the reader registration engine both ways while
	// readers and writers churn, so Stats sees both engines move.
	rw := NewRWMutex()
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < flips; i++ {
			rw.switchReaderMode(rCentral, rSharded)
			rw.switchReaderMode(rSharded, rCentral)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < flips; i++ {
			rw.RLock()
			rw.RUnlock()
			rw.Lock()
			rw.Unlock()
		}
	}()
	go poll(rw.Stats)

	wg.Wait()
}
