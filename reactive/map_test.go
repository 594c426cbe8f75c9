package reactive

import (
	"context"
	"fmt"
	"maps"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/reactive/modal"
	"repro/reactive/policy"
)

// --- construction and basic semantics --------------------------------

func TestMapZeroValue(t *testing.T) {
	var m Map[string, int]
	if got := m.Stats().Mode; got != ModeLocked {
		t.Fatalf("zero-value mode = %v, want locked", got)
	}
	if _, ok := m.Get("a"); ok {
		t.Fatal("Get on empty map reported a value")
	}
	m.Put("a", 1)
	m.Put("b", 2)
	m.Put("a", 3)
	if got := m.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2", got)
	}
	if v, ok := m.Get("a"); !ok || v != 3 {
		t.Fatalf("Get(a) = %d,%v, want 3,true", v, ok)
	}
	m.Delete("a")
	m.Delete("missing") // no-op
	if got := m.Len(); got != 1 {
		t.Fatalf("Len after delete = %d, want 1", got)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMapForcedModesBasicOps(t *testing.T) {
	for _, mode := range []Mode{ModeLocked, ModeSharded, ModeEpoch} {
		t.Run(mode.String(), func(t *testing.T) {
			// The large empty limit pins the forced mode: uncontended
			// single-threaded use legitimately votes the chain down
			// otherwise (TestMapDemotesWhenUncontended).
			m := NewMap[int, string](WithInitialMode(mode), WithEmptyLimit(1<<20))
			if got := m.Stats().Mode; got != mode {
				t.Fatalf("mode = %v, want %v", got, mode)
			}
			const n = 200
			for i := 0; i < n; i++ {
				m.Put(i, fmt.Sprintf("v%d", i))
			}
			if got := m.Len(); got != n {
				t.Fatalf("Len = %d, want %d", got, n)
			}
			for i := 0; i < n; i++ {
				if v, ok := m.Get(i); !ok || v != fmt.Sprintf("v%d", i) {
					t.Fatalf("Get(%d) = %q,%v", i, v, ok)
				}
			}
			for i := 0; i < n; i += 2 {
				m.Delete(i)
			}
			if got := m.Len(); got != n/2 {
				t.Fatalf("Len after deletes = %d, want %d", got, n/2)
			}
			seen := 0
			m.Range(func(k int, v string) bool {
				if k%2 == 0 {
					t.Fatalf("Range yielded deleted key %d", k)
				}
				seen++
				return true
			})
			if seen != n/2 {
				t.Fatalf("Range yielded %d pairs, want %d", seen, n/2)
			}
			// Early stop.
			seen = 0
			m.Range(func(int, string) bool { seen++; return false })
			if seen != 1 {
				t.Fatalf("Range after false = %d calls, want 1", seen)
			}
			// The mode must not have moved during single-threaded use.
			if got := m.Stats().Mode; got != mode {
				t.Fatalf("mode drifted to %v during uncontended use", got)
			}
			if err := m.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestMapDifferentialAgainstOracle drives one seeded random sequence —
// inserts, overwrites, deletes of present and of missing keys, Gets,
// Len, Range — through a map forced into each protocol and through a
// plain map, and compares after every operation: the returned value,
// the Len gauge, and (every so often, and at the end) the whole contents
// by Range. All three protocols mutate through the one mutate routine
// and count through its delta; this is the test that pins it.
func TestMapDifferentialAgainstOracle(t *testing.T) {
	const ops, keys = 4000, 48 // few keys: overwrites and real deletes dominate
	for _, mode := range []Mode{ModeLocked, ModeSharded, ModeEpoch} {
		t.Run(mode.String(), func(t *testing.T) {
			// The large empty limit pins the forced mode, as in
			// TestMapForcedModesBasicOps.
			m := NewMap[int, int](WithInitialMode(mode), WithEmptyLimit(1<<20))
			oracle := map[int]int{}
			rng := rand.New(rand.NewPCG(0x6d6170, uint64(mode)))
			for i := 0; i < ops; i++ {
				k := rng.IntN(keys)
				switch r := rng.IntN(10); {
				case r < 4:
					m.Put(k, i)
					oracle[k] = i
				case r < 6:
					m.Delete(k)
					delete(oracle, k)
				case r < 7:
					m.Delete(keys + k) // never present
				default:
					got, ok := m.Get(k)
					if want, had := oracle[k]; ok != had || got != want {
						t.Fatalf("op %d: Get(%d) = %d,%v, oracle has %d,%v", i, k, got, ok, want, had)
					}
				}
				if got := m.Len(); got != len(oracle) {
					t.Fatalf("op %d: Len = %d, oracle holds %d", i, got, len(oracle))
				}
				if i%257 == 0 || i == ops-1 {
					seen := map[int]int{}
					m.Range(func(k, v int) bool { seen[k] = v; return true })
					if !maps.Equal(seen, oracle) {
						t.Fatalf("op %d: Range yielded %v, oracle holds %v", i, seen, oracle)
					}
				}
			}
			if got := m.Stats().Mode; got != mode {
				t.Fatalf("mode drifted to %v during single-threaded use", got)
			}
			if err := m.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestMapStoreMatchesReference pins the lock-based stores' dense layout:
// one seeded random Put/Delete/Get sequence over a few keys, so deletes
// swap-remove from every slot (last, first and between) and re-inserts
// append into the vacated tail, runs through a map against a plain map.
// CheckInvariants after every step checks that each store's index names
// each pair's slot under its key and holds nothing else, and Range at
// the end checks the contents. The first pass pins ModeLocked, then
// ModeSharded; the second forces locked → sharded → locked → sharded →
// epoch between batches, so every key mover runs on stores that have
// taken swap-removes.
func TestMapStoreMatchesReference(t *testing.T) {
	const batch, keys = 600, 12
	pinned := func(m Mode) *Map[int, int] {
		return NewMap[int, int](WithInitialMode(m), WithSpinFailLimit(1<<20), WithEmptyLimit(1<<20))
	}
	run := func(t *testing.T, m *Map[int, int], ref map[int]int, rng *rand.Rand) {
		t.Helper()
		for i := 0; i < batch; i++ {
			k := rng.IntN(keys)
			switch r := rng.IntN(10); {
			case r < 4:
				v := rng.Int()
				m.Put(k, v)
				ref[k] = v
			case r < 7:
				m.Delete(k)
				delete(ref, k)
			default:
				got, ok := m.Get(k)
				if want, had := ref[k]; ok != had || got != want {
					t.Fatalf("step %d: Get(%d) = %d,%v, reference has %d,%v", i, k, got, ok, want, had)
				}
			}
			if err := m.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		}
	}
	check := func(t *testing.T, m *Map[int, int], ref map[int]int) {
		t.Helper()
		seen := map[int]int{}
		m.Range(func(k, v int) bool { seen[k] = v; return true })
		if !maps.Equal(seen, ref) || m.Len() != len(ref) {
			t.Fatalf("Range yielded %v (Len %d), reference holds %v", seen, m.Len(), ref)
		}
	}
	for _, mode := range []Mode{ModeLocked, ModeSharded} {
		t.Run(mode.String(), func(t *testing.T) {
			m, ref := pinned(mode), map[int]int{}
			run(t, m, ref, rand.New(rand.NewPCG(0x6964, uint64(mode))))
			check(t, m, ref)
			if got := m.Stats().Mode; got != mode {
				t.Fatalf("mode drifted to %v", got)
			}
		})
	}
	t.Run("transitions", func(t *testing.T) {
		m, ref := pinned(ModeLocked), map[int]int{}
		rng := rand.New(rand.NewPCG(0x6964, 0x7478))
		run(t, m, ref, rng)
		for _, e := range [][2]modal.Mode{{mapLocked, mapSharded}, {mapSharded, mapLocked}, {mapLocked, mapSharded}, {mapSharded, mapEpoch}} {
			m.switchMap(e[0], e[1])
			if got := m.eng.Mode(); got != e[1] {
				t.Fatalf("switch %v → %v left mode %v", e[0], e[1], got)
			}
			if err := m.CheckInvariants(); err != nil {
				t.Fatalf("after %v → %v: %v", e[0], e[1], err)
			}
			check(t, m, ref)
			run(t, m, ref, rng)
			check(t, m, ref)
		}
	})
}

// TestMapDemotesWhenUncontended verifies the scale-down half of the
// adaptivity claim: a map forced into a scalable mode that never sees
// contention walks back down the chain on its own.
func TestMapDemotesWhenUncontended(t *testing.T) {
	m := NewMap[int, int](WithInitialMode(ModeSharded))
	m.Put(1, 1)
	for i := 0; i < 4*DefaultEmptyLimit && m.Stats().Mode != ModeLocked; i++ {
		m.Get(1)
	}
	if got := m.Stats().Mode; got != ModeLocked {
		t.Fatalf("mode = %v after uncontended use, want locked", got)
	}
	if v, ok := m.Get(1); !ok || v != 1 {
		t.Fatalf("Get(1) = %d,%v after demotion", v, ok)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestMapShardedDemotesUnderInjectedPolicy pins the same walk-down with
// an injected policy in charge: an uncontended sharded operation is one
// policy event (the down-vote), not an Optimal that erases the pressure
// the previous operation's vote raised — with both, a two-direction
// policy never accumulated a streak and the map stayed sharded forever.
func TestMapShardedDemotesUnderInjectedPolicy(t *testing.T) {
	cases := []struct {
		name string
		opts []Option
	}{
		{"builtin", nil},
		{"hysteresis(3,8)", []Option{WithPolicy(policy.NewHysteresis(3, 8))}},
		{"hysteresis(3,2)", []Option{WithPolicy(policy.NewHysteresis(3, 2))}},
		{"congestion", []Option{WithPolicy(policy.NewCongestion())}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := NewMap[int, int](append([]Option{WithInitialMode(ModeSharded)}, tc.opts...)...)
			m.Put(1, 1)
			const budget = 1000 // every case demotes within 16 operations here
			ops := 0
			for ; ops < budget && m.Stats().Mode != ModeLocked; ops++ {
				m.Get(1)
			}
			if got := m.Stats().Mode; got != ModeLocked {
				t.Fatalf("mode = %v after %d uncontended operations, want locked", got, budget)
			}
			t.Logf("locked after the Put and %d Gets", ops)
			if err := m.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestMapRangeReentrant(t *testing.T) {
	m := NewMap[int, int](WithInitialMode(ModeEpoch), WithEmptyLimit(1<<20))
	for i := 0; i < 8; i++ {
		m.Put(i, i)
	}
	// Range snapshots first, so fn may call back into the map without
	// deadlocking — including mutating it.
	m.Range(func(k, v int) bool {
		if k%2 == 0 {
			m.Delete(k)
		}
		if _, ok := m.Get(k); k%2 == 0 && ok {
			t.Fatalf("key %d visible after delete inside Range", k)
		}
		return true
	})
	if got := m.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMapInitModePanics(t *testing.T) {
	for _, mode := range []Mode{ModeSpin, ModePark, ModeCAS, ModeCombining} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewMap(WithInitialMode(%v)) did not panic", mode)
				}
			}()
			NewMap[int, int](WithInitialMode(mode))
		}()
	}
	// The new mode is rejected by the primitives that have no protocol
	// for it.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("New(WithInitialMode(ModeLocked)) did not panic")
			}
		}()
		New(WithInitialMode(ModeLocked))
	}()
}

func TestMapModeTextRoundTrip(t *testing.T) {
	b, err := ModeLocked.MarshalText()
	if err != nil || string(b) != "locked" {
		t.Fatalf("MarshalText = %q,%v", b, err)
	}
	var m Mode
	if err := m.UnmarshalText([]byte("locked")); err != nil || m != ModeLocked {
		t.Fatalf("UnmarshalText = %v,%v", m, err)
	}
}

// --- the three-mode chain, both directions ---------------------------

// TestMapChainWalkBothDirections drives the detection plumbing
// deterministically through the full chain — locked → sharded → epoch →
// sharded → locked — verifying after every transition that no key was
// lost or duplicated and the structural invariants hold.
func TestMapChainWalkBothDirections(t *testing.T) {
	m := NewMap[int, int]()
	// Pin against auto-demotion while the verify sweeps run; each
	// down-step below re-arms the empty limit explicitly.
	m.wl.cfg.emptyLimit = 1 << 20
	const n = 100
	for i := 0; i < n; i++ {
		m.Put(i, i*7)
	}
	verify := func(want Mode) {
		t.Helper()
		if got := m.Stats().Mode; got != want {
			t.Fatalf("mode = %v, want %v", got, want)
		}
		if got := m.Len(); got != n {
			t.Fatalf("Len = %d, want %d", got, n)
		}
		for i := 0; i < n; i++ {
			if v, ok := m.Get(i); !ok || v != i*7 {
				t.Fatalf("Get(%d) = %d,%v after switch to %v", i, v, ok, want)
			}
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("in %v: %v", want, err)
		}
	}

	// Up: contended locked acquisitions promote to sharded.
	for i := 0; i < DefaultSpinFailLimit; i++ {
		m.note(mapLocked, true, false)
	}
	verify(ModeSharded)

	// Up: contended sharded reads promote to epoch.
	for i := 0; i < DefaultSpinFailLimit; i++ {
		m.note(mapSharded, true, true)
	}
	verify(ModeEpoch)

	// Epoch inserts of fresh keys see version numbers advance; their
	// deletes leave tombstones and publish nothing.
	v0 := m.MapStats().Version
	m.Put(n, 0)
	m.Put(n+1, 0)
	if v1 := m.MapStats().Version; v1 < v0+2 {
		t.Fatalf("version %d after two epoch inserts from %d, want >= %d", v1, v0, v0+2)
	}
	m.Delete(n)
	m.Delete(n + 1)
	verify(ModeEpoch)

	// Down: a quiet grace period (an insert with no concurrent readers)
	// demotes back to sharded on a hair-trigger empty limit.
	m.wl.cfg.emptyLimit = 1
	m.Put(n+2, 0)
	m.wl.cfg.emptyLimit = 1 << 20
	m.Delete(n + 2) // runs sharded already; restores the key count
	verify(ModeSharded)
	ms := m.MapStats()
	if ms.Graces == 0 || ms.QuietGraces == 0 {
		t.Fatalf("grace counters %d/%d after epoch round trip, want both > 0", ms.Graces, ms.QuietGraces)
	}

	// Down: an uncontended sharded operation demotes to locked.
	m.wl.cfg.emptyLimit = 1
	m.note(mapSharded, false, true)
	m.wl.cfg.emptyLimit = 1 << 20
	verify(ModeLocked)

	if sw := m.Stats().Switches; sw != 4 {
		t.Fatalf("switch count = %d after full round trip, want 4", sw)
	}
}

// TestMapLockedSkipsWriterLock pins that the locked mode is the sharded
// store at one partition: its operations take the locked store's spin
// word, never the writer lock, which serves transitions and the epoch
// mode's writers and refused operations.
func TestMapLockedSkipsWriterLock(t *testing.T) {
	m := NewMap[int, int](WithSpinFailLimit(1 << 20))
	m.Put(1, 1)
	m.wl.Lock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		m.Put(2, 2)
		m.Delete(1)
		if v, ok := m.Get(2); !ok || v != 2 {
			t.Errorf("Get(2) = %d, %v, want 2, true", v, ok)
		}
		n := 0
		m.Range(func(int, int) bool { n++; return true })
		if n != 1 {
			t.Errorf("Range yielded %d pairs, want 1", n)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("locked-mode operations blocked on the held writer lock")
	}
	m.wl.Unlock()
	if got := m.Stats().Mode; got != ModeLocked {
		t.Fatalf("mode drifted to %v, want locked", got)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// --- ctx variants ----------------------------------------------------

func TestMapGetCtxPutCtxCancel(t *testing.T) {
	// Locked mode: block the locked store's spin word directly.
	m := NewMap[int, int](WithSpinFailLimit(1 << 20))
	m.Put(1, 1)
	m.one.lock.Lock(nil)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, _, err := m.GetCtx(ctx, 1); err != context.DeadlineExceeded {
		t.Fatalf("GetCtx under held lock = %v, want DeadlineExceeded", err)
	}
	if err := m.PutCtx(ctx, 2, 2); err != context.DeadlineExceeded {
		t.Fatalf("PutCtx under held lock = %v, want DeadlineExceeded", err)
	}
	m.one.lock.Unlock()

	// The failed attempts must have left no residue.
	if _, ok := m.Get(2); ok {
		t.Fatal("cancelled PutCtx published its value")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Sharded mode: block one shard's spin word.
	s := NewMap[int, int](WithInitialMode(ModeSharded), WithSpinFailLimit(1<<20), WithEmptyLimit(1<<20))
	s.Put(1, 1)
	sh := &s.shards[s.shardIndex(1)]
	sh.lock.Lock(nil)
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel2()
	if _, _, err := s.GetCtx(ctx2, 1); err != context.DeadlineExceeded {
		t.Fatalf("sharded GetCtx under held shard = %v, want DeadlineExceeded", err)
	}
	sh.lock.Unlock()
	if _, _, err := s.GetCtx(context.Background(), 1); err != nil {
		t.Fatalf("GetCtx after release = %v", err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// --- epoch-mode read path --------------------------------------------

// TestMapEpochGetZeroAllocs pins the acceptance property of the epoch
// read path: a forced-epoch Get allocates nothing — it stamps a per-P
// cell, validates one gate word, and reads the cell table.
func TestMapEpochGetZeroAllocs(t *testing.T) {
	m := NewMap[int, int](WithInitialMode(ModeEpoch))
	for i := 0; i < 64; i++ {
		m.Put(i, i)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		if _, ok := m.Get(7); !ok {
			t.Fatal("lost key")
		}
	}); allocs != 0 {
		t.Fatalf("epoch Get allocates %.1f objects/op, want 0", allocs)
	}
}

// TestMapEpochOverwriteInPlace pins the epoch write path's split: an
// overwrite of a present key, a delete, and a re-insert of a deleted key
// are each one compare-and-swap on the key's value cell — no table
// change, no grace period, one allocation for a Put — while only an
// insert of a fresh key moves the table version by one and waits out
// one grace period.
func TestMapEpochOverwriteInPlace(t *testing.T) {
	m := NewMap[int, int](WithInitialMode(ModeEpoch), WithEmptyLimit(1<<20))
	const keys = 16
	for k := 0; k < keys; k++ {
		m.Put(k, k)
	}
	check := func(step string, want map[int]int) {
		t.Helper()
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("after %s: %v", step, err)
		}
		for k, v := range want {
			if got, ok := m.Get(k); !ok || got != v {
				t.Fatalf("after %s: Get(%d) = %d,%v, want %d,true", step, k, got, ok, v)
			}
		}
		seen := map[int]int{}
		m.Range(func(k, v int) bool { seen[k] = v; return true })
		if !maps.Equal(seen, want) {
			t.Fatalf("after %s: Range saw %v, want %v", step, seen, want)
		}
	}
	want := map[int]int{}
	for k := 0; k < keys; k++ {
		want[k] = k
	}
	check("seeding", want)
	before := m.MapStats()

	for i := 0; i < 100; i++ {
		k := i % keys
		m.Put(k, 1000*i+k)
		want[k] = 1000*i + k
		check(fmt.Sprintf("overwrite %d", i), want)
	}
	if ms := m.MapStats(); ms.Version != before.Version || ms.Graces != before.Graces {
		t.Fatalf("100 overwrites moved version %d -> %d and graces %d -> %d, want both unchanged",
			before.Version, ms.Version, before.Graces, ms.Graces)
	}
	if allocs := testing.AllocsPerRun(100, func() { m.Put(3, 3) }); allocs != 1 {
		t.Fatalf("epoch overwrite allocates %.1f objects/op, want 1 (the value's box)", allocs)
	}
	want[3] = 3

	// step runs op and checks that it moved Version and Graces by
	// published each.
	step := func(name string, published uint64, op func()) {
		t.Helper()
		prev := m.MapStats()
		op()
		ms := m.MapStats()
		if ms.Version != prev.Version+published || ms.Graces != prev.Graces+published {
			t.Fatalf("%s moved version %d -> %d and graces %d -> %d, want +%d each",
				name, prev.Version, ms.Version, prev.Graces, ms.Graces, published)
		}
		check(name, want)
	}
	step("insert", 1, func() { m.Put(keys, -1); want[keys] = -1 })
	step("delete", 0, func() { m.Delete(0); delete(want, 0) })
	step("delete of a tombstone", 0, func() { m.Delete(0) })
	// A re-inserted key takes its tombstoned cell back.
	step("re-insert", 0, func() { m.Put(0, 7); want[0] = 7 })
	step("overwrite after re-insert", 0, func() { m.Put(0, 8); want[0] = 8 })
	step("insert of another fresh key", 1, func() { m.Put(keys+1, -2); want[keys+1] = -2 })
}

// TestMapEpochCompactionBoundsCells churns many fresh keys through a
// forced-epoch map — insert one, delete the one inserted live keys
// before it — so every delete leaves a tombstoned cell. Compaction must
// keep the slab's length and capacity within twice the live keys plus a
// small floor at quiescence; without it the slab would hold a cell for
// every key ever inserted. The invariants, the index's agreement with
// the slab among them, must hold after every step, through each growth
// of the slab and each compaction.
func TestMapEpochCompactionBoundsCells(t *testing.T) {
	m := NewMap[int, int](WithInitialMode(ModeEpoch), WithEmptyLimit(1<<20))
	const churn, live = 5000, 16
	for k := 0; k < churn; k++ {
		m.Put(k, k)
		if k >= live {
			m.Delete(k - live)
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("after inserting key %d: %v", k, err)
		}
	}
	if got := m.Len(); got != live {
		t.Fatalf("Len = %d, want %d", got, live)
	}
	if n, c := len(m.slab), cap(m.slab); n > 2*live+4 || c > 2*live+4 {
		t.Errorf("slab holds %d cells with room for %d for %d live keys after %d fresh keys, want both <= %d", n, c, live, churn, 2*live+4)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// slabBlock is the block length of moveSlab's climbs and falls.
const slabBlock = 32

// moveSlab is the inserter of the slab-moving tests: ops Puts, through
// put, of the fresh keys first, first+1, and so on, in blocks of
// slabBlock. An even block deletes nothing; an odd one deletes, through
// del, the two oldest fresh keys still live after each Put, so the live
// fresh keys climb to slabBlock and fall back to none: each climb grows
// the epoch slab several times and each fall compacts it. It returns how
// many Puts (with their deletes) left the slab with more room, and how
// many left it shorter, reading the slab under wl between them.
func moveSlab(m *Map[int, int], first, ops int, put, del func(k int)) (grown, compacted int) {
	slab := func() (n, c int) {
		m.wl.Lock()
		defer m.wl.Unlock()
		return len(m.slab), cap(m.slab)
	}
	oldest := first
	for i := range ops {
		n0, c0 := slab()
		put(first + i)
		for d := 0; d < 2 && i/slabBlock%2 == 1 && oldest <= first+i; d++ {
			del(oldest)
			oldest++
		}
		n1, c1 := slab()
		if c1 > c0 {
			grown++
		}
		if n1 < n0 {
			compacted++
		}
	}
	return grown, compacted
}

// TestMapEpochSlabMoves keeps readers, a Range loop and known-key cell
// writers running on a forced-epoch map while fresh-key inserts move
// its slab (moveSlab): the cells they find are copied into a fresh slab
// under them, again and again. Every value a Put stores under key k is
// seq<<8|k&0xff with a fresh seq, recorded before the Put, so each value
// a Get or Range returns must name a Put that wrote it under that key.
// Within one Range no key may repeat, and the stable keys, stored before
// the run and never written again, must all be yielded.
func TestMapEpochSlabMoves(t *testing.T) {
	const stable, hot, writers, readers = 8, 8, 2, 2
	m := NewMap[int, int](WithInitialMode(ModeEpoch), WithEmptyLimit(1<<20))
	ops := linearizeOps()
	// wrote[seq] is one more than the key the Put numbered seq wrote.
	wrote := make([]atomic.Int64, stable+hot+(writers+1)*ops+1)
	var seq atomic.Int64
	put := func(k int) {
		s := seq.Add(1)
		wrote[s].Store(int64(k) + 1)
		m.Put(k, int(s)<<8|k&0xff)
	}
	wrote1 := func(k, v int) bool {
		s := v >> 8
		return v&0xff == k&0xff && s > 0 && s < len(wrote) && wrote[s].Load() == int64(k)+1
	}
	for k := range stable + hot {
		put(k)
	}
	// Fresh keys stable+hot up to stable+hot+inserted have been Put.
	var inserted atomic.Int64
	stop := make(chan struct{})
	var bg sync.WaitGroup
	for r := range readers {
		bg.Add(1)
		go func() {
			defer bg.Done()
			rng := rand.New(rand.NewPCG(uint64(r), 0x736c6162))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := rng.IntN(stable + hot)
				if n := inserted.Load(); n > 0 && rng.IntN(2) == 0 {
					k = stable + hot + rng.IntN(int(n))
				}
				switch v, ok := m.Get(k); {
				case ok && !wrote1(k, v):
					t.Errorf("Get(%d) = %#x, which no Put wrote under that key", k, v)
					return
				case !ok && k < stable:
					t.Errorf("Get missed stable key %d", k)
					return
				}
			}
		}()
	}
	var ranges atomic.Int64
	bg.Add(1)
	go func() { // the ranger
		defer bg.Done()
		for ; ; ranges.Add(1) {
			select {
			case <-stop:
				return
			default:
			}
			seen := map[int]bool{}
			m.Range(func(k, v int) bool {
				switch {
				case seen[k]:
					t.Errorf("Range yielded key %d twice", k)
				case !wrote1(k, v):
					t.Errorf("Range yielded %d=%#x, which no Put wrote under that key", k, v)
				default:
					seen[k] = true
					return true
				}
				return false
			})
			for k := range stable {
				if !seen[k] {
					t.Errorf("Range missed stable key %d", k)
				}
			}
			if t.Failed() {
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := range writers {
		wg.Add(1)
		go func() { // a known-key cell writer
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 0x63656c6c))
			for range ops {
				k := stable + rng.IntN(hot)
				if rng.IntN(10) < 7 {
					put(k)
				} else {
					m.Delete(k)
				}
			}
		}()
	}
	grown, compacted := moveSlab(m, stable+hot, ops, func(k int) { put(k); inserted.Add(1) }, m.Delete)
	wg.Wait()
	// On a loaded host the inserts can end before the ranger's first
	// Range does; the deadline ends that wait.
	for end := time.Now().Add(10 * time.Second); ranges.Load() == 0 && time.Now().Before(end); {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	bg.Wait()
	if grown < 2 || compacted < 2 || ranges.Load() == 0 {
		t.Fatalf("the slab grew %d times and compacted %d times under %d Ranges, want at least 2, 2 and 1", grown, compacted, ranges.Load())
	}
	if got := m.Stats().Mode; got != ModeEpoch {
		t.Fatalf("mode = %v, want epoch", got)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestMapOverwriteAllocs pins that the epoch mode's value box is its
// own: an overwrite in the locked and sharded modes allocates nothing.
func TestMapOverwriteAllocs(t *testing.T) {
	for _, mode := range []Mode{ModeLocked, ModeSharded} {
		m := NewMap[int, int](WithInitialMode(mode), WithSpinFailLimit(1<<20), WithEmptyLimit(1<<20))
		m.Put(1, 1)
		if allocs := testing.AllocsPerRun(100, func() { m.Put(1, 2) }); allocs != 0 {
			t.Fatalf("%v overwrite allocates %.1f objects/op, want 0", mode, allocs)
		}
	}
}

// TestMapRangeAllocs pins what a snapshot costs: a Range over 256 keys
// allocates the one slice its pairs are appended to, in every mode. A
// snapshot that clones the store into a hash map allocates that map's
// memory as well: 9 allocations per Range when every mode cloned.
func TestMapRangeAllocs(t *testing.T) {
	for _, mode := range []Mode{ModeLocked, ModeSharded, ModeEpoch} {
		m := NewMap[uint64, uint64](WithInitialMode(mode), WithSpinFailLimit(1<<20), WithEmptyLimit(1<<20))
		for k := uint64(0); k < 256; k++ {
			m.Put(k, k)
		}
		n := 0
		allocs := testing.AllocsPerRun(100, func() {
			n = 0
			m.Range(func(uint64, uint64) bool { n++; return true })
		})
		if n != 256 {
			t.Fatalf("%v Range yielded %d pairs, want 256", mode, n)
		}
		if allocs > 1 {
			t.Fatalf("%v Range allocates %.1f objects, want 1 (the snapshot slice)", mode, allocs)
		}
		if got := m.Stats().Mode; got != mode {
			t.Fatalf("mode drifted to %v, want %v", got, mode)
		}
	}
}

// TestMapRangeReusesSnapshot pins the spare snapshots: once a Range has
// run, the next one over 256 keys allocates nothing, in every mode; and
// a Range that fn starts inside another copies into a slice of its own,
// so clearing it leaves the outer snapshot's pairs intact. Under the
// race detector, which makes sync.Pool drop spares at random, only the
// second half holds.
func TestMapRangeReusesSnapshot(t *testing.T) {
	for _, mode := range []Mode{ModeLocked, ModeSharded, ModeEpoch} {
		m := NewMap[uint64, uint64](WithInitialMode(mode), WithSpinFailLimit(1<<20), WithEmptyLimit(1<<20))
		for k := uint64(0); k < 256; k++ {
			m.Put(k, k+1)
		}
		allocs := testing.AllocsPerRun(100, func() {
			m.Range(func(uint64, uint64) bool { return true })
		})
		if allocs != 0 && !raceEnabled {
			t.Fatalf("%v Range allocates %.1f objects once warm, want 0", mode, allocs)
		}
		outer, inner := 0, 0
		m.Range(func(k, v uint64) bool {
			if v != k+1 {
				t.Fatalf("%v outer Range yielded %d=%d after a nested Range, want %d", mode, k, v, k+1)
			}
			if outer++; outer == 1 {
				m.Range(func(uint64, uint64) bool { inner++; return true })
			}
			return true
		})
		if outer != 256 || inner != 256 {
			t.Fatalf("%v outer Range yielded %d pairs and nested %d, want 256 each", mode, outer, inner)
		}
	}
}

func TestMapEpochChurnStress(t *testing.T) {
	// Stay in epoch mode throughout: readers race writers that are
	// changing the table, the interleaving the grace-period proof is
	// about. Values encode their key (v/1000 == k) so a torn or
	// reclaimed-too-early read is detectable, and the version gauge
	// must be monotone across the run.
	m := NewMap[int, int](WithInitialMode(ModeEpoch), WithEmptyLimit(1<<20))
	const keys = 32
	for k := 0; k < keys; k++ {
		m.Put(k, k*1000)
	}
	iters := 2000
	if testing.Short() {
		iters = 400
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := (g*13 + i) % keys
				if v, ok := m.Get(k); ok && v/1000 != k {
					panic(fmt.Sprintf("Get(%d) returned %d: value from another key", k, v))
				}
			}
		}(g)
	}
	var lastVer uint64
	for i := 0; i < iters; i++ {
		k := i % keys
		m.Put(k, k*1000+i%1000)
		if i%64 == 0 {
			if ver := m.MapStats().Version; ver < lastVer {
				t.Fatalf("version went backward: %d -> %d", lastVer, ver)
			} else {
				lastVer = ver
			}
		}
	}
	close(stop)
	wg.Wait()
	if got := m.Stats().Mode; got != ModeEpoch {
		t.Fatalf("mode = %v, want epoch (emptyLimit should have pinned it)", got)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// --- mixed-mode stress -----------------------------------------------

// TestMapStressModeFlips hammers the map with mixed operations while an
// always-switch policy and an explicit flipper goroutine force
// transitions along the whole chain, then verifies conservation: every
// worker owns a key range and tracks its own final model, and the map
// must agree exactly.
func TestMapStressModeFlips(t *testing.T) {
	m := NewMap[int, int](WithPolicy(policy.AlwaysSwitch{}))
	const workers = 8
	iters := 1500
	if testing.Short() {
		iters = 300
	}
	stop := make(chan struct{})
	var fwg sync.WaitGroup
	fwg.Add(1)
	go func() {
		defer fwg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// Push upward; the always-switch policy demotes from epoch
			// on the first quiet grace, so the chain churns end to end.
			m.switchMap(mapLocked, mapSharded)
			m.switchMap(mapSharded, mapEpoch)
			time.Sleep(50 * time.Microsecond)
		}
	}()
	models := make([]map[int]int, workers)
	var wg sync.WaitGroup
	var reads atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			model := make(map[int]int)
			base := w * 1000
			for i := 0; i < iters; i++ {
				k := base + i%64
				switch i % 5 {
				case 0, 1, 2:
					v := w<<20 | i
					m.Put(k, v)
					model[k] = v
				case 3:
					m.Delete(k)
					delete(model, k)
				default:
					// Cross-worker read; value correctness is checked
					// against the owner's model after the join.
					if _, ok := m.Get((i * 37) % (workers * 1000)); ok {
						reads.Add(1)
					}
				}
			}
			models[w] = model
		}(w)
	}
	wg.Wait()
	close(stop)
	fwg.Wait()

	live := 0
	for w, model := range models {
		live += len(model)
		for k, want := range model {
			if v, ok := m.Get(k); !ok || v != want {
				t.Fatalf("worker %d key %d = %d,%v, want %d,true", w, k, v, ok, want)
			}
		}
	}
	if got := m.Len(); got != live {
		t.Fatalf("Len = %d, want %d live keys", got, live)
	}
	if sw := m.Stats().Switches; sw == 0 {
		t.Fatal("no mode switches during flip storm")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestMapRangeModeFlips runs Range against concurrent writers while an
// always-switch policy and a flipper goroutine drag the map through all
// three modes. Every value a writer stores under key k is seq<<8|k with
// a fresh seq, recorded before the Put, so each yielded value must name
// a Put that wrote it under that key. Within one Range no key may
// repeat, and the stable keys, stored before the run and never written
// again, must all be yielded.
//
// Each writer runs its ops, then goes on, pausing before each further
// operation, until the flipper has committed a switch and the ranger has
// finished a Range: on a loaded host the ops alone can end before
// either. The deadline ends that tail, and the pause bounds how many
// operations it adds.
func TestMapRangeModeFlips(t *testing.T) {
	const stable, keys, writers = 16, 48, 3
	const pause, deadline = time.Millisecond, 10 * time.Second
	m := NewMap[uint64, uint64](WithPolicy(policy.AlwaysSwitch{}))
	ops := linearizeOps()
	// wrote[seq] is one more than the key the Put numbered seq wrote.
	wrote := make([]atomic.Uint64, stable+writers*(ops+int(deadline/pause))+1)
	var seq atomic.Uint64
	put := func(k uint64) {
		s := seq.Add(1)
		wrote[s].Store(k + 1)
		m.Put(k, s<<8|k)
	}
	for k := uint64(0); k < stable; k++ {
		put(k)
	}
	stop := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(2)
	go func() { // the flipper
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			m.switchMap(mapLocked, mapSharded)
			m.switchMap(mapSharded, mapEpoch)
			time.Sleep(20 * time.Microsecond)
		}
	}()
	var ranges atomic.Int64
	go func() { // the ranger
		defer bg.Done()
		for ; ; ranges.Add(1) {
			select {
			case <-stop:
				return
			default:
			}
			var seen [keys]bool
			m.Range(func(k, v uint64) bool {
				switch {
				case k >= keys:
					t.Errorf("Range yielded key %d, never written", k)
				case seen[k]:
					t.Errorf("Range yielded key %d twice", k)
				case v&0xff != k || v>>8 >= uint64(len(wrote)) || wrote[v>>8].Load() != k+1:
					t.Errorf("Range yielded %d=%#x, which no Put wrote under that key", k, v)
				default:
					seen[k] = true
					return true
				}
				return false
			})
			for k := range stable {
				if !seen[k] {
					t.Errorf("Range missed stable key %d", k)
				}
			}
			if t.Failed() {
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 0x72616e))
			end := time.Now().Add(deadline)
			for i := 0; i < ops || m.Stats().Switches == 0 || ranges.Load() == 0; i++ {
				if i >= ops {
					if time.Now().After(end) {
						return
					}
					time.Sleep(pause)
				}
				k := stable + rng.Uint64N(keys-stable)
				if rng.IntN(10) < 7 {
					put(k)
				} else {
					m.Delete(k)
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	bg.Wait()
	if m.Stats().Switches == 0 || ranges.Load() == 0 {
		t.Fatalf("%d switches and %d Ranges during the run, want both nonzero", m.Stats().Switches, ranges.Load())
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// --- stats -----------------------------------------------------------

func TestMapStatsShape(t *testing.T) {
	m := NewMap[string, int]()
	s := m.Stats()
	if s.Mode != ModeLocked || s.Switches != 0 || s.Waiters != 0 || s.Readers != nil {
		t.Fatalf("fresh Stats = %+v", s)
	}
	ms := m.MapStats()
	if ms.Shards != 0 || ms.Version != 0 {
		t.Fatalf("fresh MapStats = %+v", ms)
	}
	e := NewMap[string, int](WithInitialMode(ModeEpoch))
	ems := e.MapStats()
	if ems.Shards == 0 {
		t.Fatal("forced-epoch map reports no shards (the sharded store is built en route)")
	}
	if ems.Version == 0 {
		t.Fatal("forced-epoch map reports version 0, want the initial publish counted")
	}
	if ems.Mode != ModeEpoch {
		t.Fatalf("forced-epoch MapStats mode = %v", ems.Mode)
	}
}
