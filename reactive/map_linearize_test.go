package reactive

import (
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"repro/internal/linearize"
	"repro/reactive/policy"
)

// Linearizability of Map's Get, Put and Delete, checked exhaustively
// over recorded histories (internal/linearize): each key's sub-history
// must be a register-with-delete history. The runs target the windows
// the epoch mode's lock-free cell writes open — a delete and a
// re-insert of one key racing readers, an insert's compaction dropping
// the tombstoned cells other writers store into — and the mode
// transitions every key must cross exactly once. Under -tags
// reactive_chaos the map.cell.store point widens the load-to-CAS window
// of racing cell writers.

// linearizeOps scales a run: each worker's operation count.
func linearizeOps() int {
	if testing.Short() {
		return 300
	}
	return 1500
}

// recordMap runs workers goroutines of body against m, recording every
// Get, Put and Delete, and checks the history from init. quiesce, if
// not nil, runs once the workers are done and stops whatever else the
// test has driving m, so m.CheckInvariants sees it at rest.
func recordMap(t *testing.T, m *Map[int, int], init map[int]int, workers int, quiesce func(), body func(h *linearize.History, w int, rng *rand.Rand)) {
	t.Helper()
	h := linearize.NewHistory(workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body(h, w, rand.New(rand.NewPCG(uint64(w), 0x6c696e)))
		}()
	}
	wg.Wait()
	if quiesce != nil {
		quiesce()
	}
	if err := linearize.Check(init, h.Ops()); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestMapLinearizableModeFlips: shared keys written and read by every
// worker while an always-switch policy and a flipper goroutine drag the
// map through all three modes.
func TestMapLinearizableModeFlips(t *testing.T) {
	m := NewMap[int, int](WithPolicy(policy.AlwaysSwitch{}))
	stop := make(chan struct{})
	var fwg sync.WaitGroup
	fwg.Add(1)
	go func() {
		defer fwg.Done()
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
	ops := linearizeOps()
	quiesce := func() { close(stop); fwg.Wait() }
	recordMap(t, m, nil, 4, quiesce, func(h *linearize.History, w int, rng *rand.Rand) {
		for i := range ops {
			k := rng.IntN(6)
			switch r := rng.IntN(10); {
			case r < 4:
				h.Put(w, m, k, w<<20|i)
			case r < 6:
				h.Delete(w, m, k)
			default:
				h.Get(w, m, k)
			}
		}
	})
	if m.Stats().Switches == 0 {
		t.Fatal("no mode switches during the run")
	}
}

// TestMapLinearizableDeleteReinsert: in the epoch mode, two writers
// delete and re-insert one key — each re-insert a CAS into the key's
// tombstoned cell — while two readers Get it.
func TestMapLinearizableDeleteReinsert(t *testing.T) {
	m := NewMap[int, int](WithInitialMode(ModeEpoch), WithEmptyLimit(1<<20))
	m.Put(0, -1)
	ops := linearizeOps()
	v0 := m.MapStats().Version
	recordMap(t, m, map[int]int{0: -1}, 4, nil, func(h *linearize.History, w int, rng *rand.Rand) {
		for i := range ops {
			switch {
			case w >= 2:
				h.Get(w, m, 0)
			case rng.IntN(2) == 0:
				h.Delete(w, m, 0)
			default:
				h.Put(w, m, 0, w<<20|i)
			}
		}
	})
	if got := m.Stats().Mode; got != ModeEpoch {
		t.Fatalf("mode = %v, want epoch", got)
	}
	if v := m.MapStats().Version; v != v0 {
		t.Fatalf("deletes and re-inserts of one key published %d tables, want 0", v-v0)
	}
}

// TestMapLinearizableCompaction: in the epoch mode, writers Put and
// Delete a few hot keys without the writer lock while one worker
// inserts and deletes fresh keys, so tombstones keep outnumbering live
// keys and nearly every insert compacts — dropping tombstoned hot cells
// the writers store into whenever its claim lets them in.
func TestMapLinearizableCompaction(t *testing.T) {
	m := NewMap[int, int](WithInitialMode(ModeEpoch), WithEmptyLimit(1<<20))
	const hot = 4
	ops := linearizeOps()
	v0 := m.MapStats().Version
	recordMap(t, m, nil, 4, nil, func(h *linearize.History, w int, rng *rand.Rand) {
		for i := range ops {
			if w == 0 { // the inserter: a fresh key, then its delete
				k := hot + i
				h.Put(w, m, k, i)
				h.Get(w, m, rng.IntN(hot))
				h.Delete(w, m, k)
				continue
			}
			k := rng.IntN(hot)
			switch r := rng.IntN(10); {
			case r < 4:
				h.Put(w, m, k, w<<20|i)
			case r < 7:
				h.Delete(w, m, k)
			default:
				h.Get(w, m, k)
			}
		}
	})
	if v := m.MapStats().Version - v0; v < uint64(ops) {
		t.Fatalf("%d fresh inserts published %d tables, want at least one each", ops, v)
	}
	// At most hot keys (and the inserter's one fresh key) are ever live
	// together, so a compacting table never holds many more cells.
	if cells := len(m.cells); cells > 4*hot {
		t.Fatalf("%d cells after %d fresh inserts over %d hot keys: compaction did not run", cells, ops, hot)
	}
}
