package torture

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"

	"repro/reactive"
	"repro/reactive/policy"
)

// The scenario matrix. Every primitive appears with its full mode chain
// in motion: flip-storm cases force constant protocol switching
// (hair-trigger thresholds or an always-switch policy), cancel-storm
// cases keep the cancellation and deadline paths under fire, and the
// remaining cases pin the specific windows the paper's soundness
// argument leans on (epoch-mode TryLock undo, combining-mode harvest).
var cases = []Case{
	{
		Name: "mutex/flip-storm",
		Desc: "Mutex under hair-trigger spin↔park flipping with the full op vocabulary",
		run: func(rc runCtx) error {
			return mutexCase(rc, false,
				reactive.WithSpinFailLimit(1), reactive.WithEmptyLimit(1))
		},
	},
	{
		Name: "mutex/cancel-storm",
		Desc: "Mutex hammered with microsecond-deadline LockCtx/TryLockFor cancellations",
		run: func(rc runCtx) error {
			return mutexCase(rc, true,
				reactive.WithPolicy(policy.NewCompetitive(64)))
		},
	},
	{
		Name: "mutex/congestion",
		Desc: "Mutex with the congestion-control policy steering the mode chain",
		run: func(rc runCtx) error {
			return mutexCase(rc, false,
				reactive.WithPolicy(policy.NewCongestion()))
		},
	},
	{
		Name: "rwmutex/chain-walk",
		Desc: "RWMutex walking the centralized↔sharded↔epoch reader chain under mixed load",
		run: func(rc runCtx) error {
			return rwCase(rc, rwMixed,
				reactive.WithSpinFailLimit(1), reactive.WithEmptyLimit(1))
		},
	},
	{
		Name: "rwmutex/epoch-trylock",
		Desc: "Epoch-mode readers racing a TryLock claim/retract/re-grant hammer, the writer mutex park-started",
		run: func(rc runCtx) error {
			return rwCase(rc, rwTryHeavy,
				reactive.WithInitialReaderMode(reactive.ModeEpoch),
				reactive.WithInitialMode(reactive.ModePark))
		},
	},
	{
		Name: "rwmutex/cancel-storm",
		Desc: "Parked readers and writers abandoned by microsecond deadlines mid-drain, the writer mutex park-started under hysteresis",
		run: func(rc runCtx) error {
			return rwCase(rc, rwCancel,
				reactive.WithInitialMode(reactive.ModePark),
				reactive.WithPolicy(policy.NewHysteresis(2, 2)))
		},
	},
	{
		Name: "counter/conservation",
		Desc: "Counter increment conservation while an always-switch policy churns modes",
		run: func(rc runCtx) error {
			// Start sharded: a CAS-mode Counter's Add is a bare atomic
			// add that never detects contention, so it would sit in CAS
			// forever; from sharded, the always-switch policy keeps the
			// deposit/sweep chain in motion.
			return counterCase(rc,
				reactive.WithInitialMode(reactive.ModeSharded),
				reactive.WithPolicy(policy.AlwaysSwitch{}))
		},
	},
	{
		Name: "map/conservation",
		Desc: "Map Put/Delete/Get conservation per owned key range while modes flip end to end",
		run: func(rc runCtx) error {
			// Start in the middle of the chain with an always-switch
			// policy: contended shard acquisitions promote to epoch,
			// quiet grace periods and uncontended ops demote, so the
			// fleet drags the map across every transition while each
			// worker's owned keys must survive exactly.
			return mapConservationCase(rc,
				reactive.WithInitialMode(reactive.ModeSharded),
				reactive.WithPolicy(policy.AlwaysSwitch{}))
		},
	},
	{
		Name: "map/epoch-churn",
		Desc: "Epoch-mode readers racing lock-free value-cell writes, then fresh-key inserts that grow and compact the table in place",
		run: func(rc runCtx) error {
			return mapEpochChurnCase(rc,
				reactive.WithInitialMode(reactive.ModeEpoch),
				reactive.WithEmptyLimit(1<<20))
		},
	},
	{
		Name: "fetchop/max-known-answer",
		Desc: "Non-commutative-looking fold (max) must converge to the known answer",
		run: func(rc runCtx) error {
			return fetchOpMaxCase(rc,
				reactive.WithInitialMode(reactive.ModeSharded),
				reactive.WithSpinFailLimit(1), reactive.WithEmptyLimit(1))
		},
	},
	{
		Name: "fetchop/combining-churn",
		Desc: "Combining-mode sum conservation against a storm of reconciling Value sweeps",
		run: func(rc runCtx) error {
			return fetchOpSumCase(rc,
				reactive.WithInitialMode(reactive.ModeCombining),
				reactive.WithPolicy(policy.NewWeightedAverage(64, 128)))
		},
	},
}

// mutexCase drives a Mutex with the full acquisition vocabulary and
// verifies exclusion (two plain ints that must move in lockstep; the
// race detector audits every access) and conservation (the plain
// increment count must equal the atomically counted acquisitions).
func mutexCase(rc runCtx, cancelHeavy bool, opts ...reactive.Option) error {
	m := reactive.New(opts...)
	var a, b int // written only while holding m; -race audits this claim
	var acquired atomic.Int64
	crit := func(stretch bool) {
		a++
		if stretch {
			runtime.Gosched() // widen the torn-write window
		}
		b++
		acquired.Add(1)
	}
	snap := func() string { return fmt.Sprintf("mutex: %+v", m.Stats()) }
	err := fleet(rc, snap, func(id int, rng *prng) error {
		for i := 0; i < rc.ops; i++ {
			r := rng.intn(16)
			if cancelHeavy && r < 10 {
				r = 10 + r%4 // bias hard toward the deadline/cancel ops
			}
			switch {
			case r < 8: // blocking Lock
				m.Lock()
				crit(r == 0)
				m.Unlock()
			case r < 10: // TryLock
				if m.TryLock() {
					crit(false)
					m.Unlock()
				}
			case r < 12: // bounded wait
				if m.TryLockFor(rng.µs(50)) {
					crit(false)
					m.Unlock()
				}
			case r < 14: // cancellation storm
				ctx, cancel := context.WithTimeout(context.Background(), rng.µs(50))
				if m.LockCtx(ctx) == nil {
					crit(false)
					m.Unlock()
				}
				cancel()
			default:
				runtime.Gosched()
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if a != b {
		return fmt.Errorf("exclusion broken: a=%d b=%d", a, b)
	}
	if int64(a) != acquired.Load() {
		return fmt.Errorf("conservation broken: %d increments, %d acquisitions", a, acquired.Load())
	}
	return m.CheckInvariants()
}

// rwCase op mixes.
const (
	rwMixed    = iota // readers and writers in the usual 3:1 ratio
	rwTryHeavy        // TryLock hammer against a reader majority
	rwCancel          // everything deadline-bounded
)

// rwCase drives an RWMutex. Writers increment two plain ints with a
// yield between them; readers assert the pair is never seen torn — an
// exclusion violation is both a panic and a -race report.
func rwCase(rc runCtx, mix int, opts ...reactive.Option) error {
	rw := reactive.NewRWMutex(opts...)
	var a, b int // written under Lock, read under RLock
	var writes atomic.Int64
	write := func() {
		a++
		runtime.Gosched()
		b++
		writes.Add(1)
	}
	read := func() error {
		if a != b {
			return fmt.Errorf("exclusion broken: reader saw a=%d b=%d", a, b)
		}
		return nil
	}
	snap := func() string { return fmt.Sprintf("rwmutex: %+v", rw.Stats()) }
	err := fleet(rc, snap, func(id int, rng *prng) error {
		for i := 0; i < rc.ops; i++ {
			r := rng.intn(16)
			switch mix {
			case rwTryHeavy:
				if r < 10 { // reader majority keeps the epoch gate busy
					r = r % 3
				} else {
					r = 9 // TryLock
				}
			case rwCancel:
				if r < 8 {
					r = 4 // RLockCtx
				} else {
					r = 11 // LockCtx
				}
			}
			switch {
			case r < 3: // RLock
				rw.RLock()
				e := read()
				rw.RUnlock()
				if e != nil {
					return e
				}
			case r < 4: // TryRLock
				if rw.TryRLock() {
					e := read()
					rw.RUnlock()
					if e != nil {
						return e
					}
				}
			case r < 6: // deadline-bounded read
				ctx, cancel := context.WithTimeout(context.Background(), rng.µs(100))
				var e error
				if rw.RLockCtx(ctx) == nil {
					e = read()
					rw.RUnlock()
				}
				cancel()
				if e != nil {
					return e
				}
			case r < 9: // Lock
				rw.Lock()
				write()
				rw.Unlock()
			case r < 10: // TryLock
				if rw.TryLock() {
					write()
					rw.Unlock()
				}
			case r < 12: // deadline-bounded write
				ctx, cancel := context.WithTimeout(context.Background(), rng.µs(100))
				if rw.LockCtx(ctx) == nil {
					write()
					rw.Unlock()
				}
				cancel()
			default:
				runtime.Gosched()
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if a != b {
		return fmt.Errorf("exclusion broken: a=%d b=%d", a, b)
	}
	if int64(a) != writes.Load() {
		return fmt.Errorf("conservation broken: %d increments, %d writes", a, writes.Load())
	}
	return rw.CheckInvariants()
}

// counterCase verifies increment conservation: the Counter's final
// value must equal the sum every worker knows it contributed, with
// interleaved Loads forcing reconciling sweeps mid-storm.
func counterCase(rc runCtx, opts ...reactive.Option) error {
	c := reactive.NewCounter(opts...)
	sums := make([]int64, rc.workers)
	snap := func() string { return fmt.Sprintf("counter: %+v", c.Stats()) }
	err := fleet(rc, snap, func(id int, rng *prng) error {
		for i := 0; i < rc.ops; i++ {
			d := int64(rng.intn(1000)) - 500
			c.Add(d)
			sums[id] += d
			if rng.intn(32) == 0 {
				c.Load() // force a reconciling sweep mid-storm
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	var want int64
	for _, s := range sums {
		want += s
	}
	if got := c.Load(); got != want {
		return fmt.Errorf("conservation broken: Load = %d, workers contributed %d", got, want)
	}
	return c.CheckInvariants()
}

// fetchOpMaxCase folds max over a deterministic value stream; the final
// Value must be the maximum every worker saw, and intermediate Values
// must be monotonically consistent (never exceeding the known answer).
func fetchOpMaxCase(rc runCtx, opts ...reactive.Option) error {
	f := reactive.NewFetchOp(func(x, y int64) int64 {
		if x > y {
			return x
		}
		return y
	}, math.MinInt64, opts...)
	maxes := make([]int64, rc.workers)
	for i := range maxes {
		maxes[i] = math.MinInt64
	}
	snap := func() string { return fmt.Sprintf("fetchop: %+v", f.Stats()) }
	err := fleet(rc, snap, func(id int, rng *prng) error {
		hi := int64(math.MinInt64)
		for i := 0; i < rc.ops; i++ {
			v := int64(rng.next() >> 1) // non-negative, full spread
			f.Apply(v)
			if v > hi {
				hi = v
			}
			if rng.intn(16) == 0 {
				f.Value() // reconciling sweeps race the deposits
			}
		}
		maxes[id] = hi
		return nil
	})
	if err != nil {
		return err
	}
	want := int64(math.MinInt64)
	for _, m := range maxes {
		if m > want {
			want = m
		}
	}
	if got := f.Value(); got != want {
		return fmt.Errorf("known answer broken: Value = %d, want %d", got, want)
	}
	return f.CheckInvariants()
}

// fetchOpSumCase is counterCase through the raw FetchOp API — an
// explicit addition op, so reconciliation runs the general casFold path
// rather than the Counter's Add fast path — with every worker both
// depositing and sweeping, so combining-mode harvests constantly race
// fresh deposits.
func fetchOpSumCase(rc runCtx, opts ...reactive.Option) error {
	f := reactive.NewFetchOp(func(x, y int64) int64 { return x + y }, 0, opts...)
	sums := make([]int64, rc.workers)
	snap := func() string { return fmt.Sprintf("fetchop: %+v", f.Stats()) }
	err := fleet(rc, snap, func(id int, rng *prng) error {
		for i := 0; i < rc.ops; i++ {
			d := int64(rng.intn(256)) - 128
			f.Apply(d)
			sums[id] += d
			if rng.intn(8) == 0 {
				f.Value()
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	var want int64
	for _, s := range sums {
		want += s
	}
	if got := f.Value(); got != want {
		return fmt.Errorf("conservation broken: Value = %d, workers contributed %d", got, want)
	}
	return f.CheckInvariants()
}

// mapConservationCase drives a reactive.Map with the full op vocabulary
// while mode flips churn the chain. Each worker owns a disjoint key
// range and tracks its own final model; after the fleet joins, the map
// must agree with every model exactly (no key lost or duplicated by any
// transition) and the Len gauge must equal the live total. Cross-worker
// reads assert the value-shape invariant vkey(k) — a value read under
// any protocol must have been written under that key.
func mapConservationCase(rc runCtx, opts ...reactive.Option) error {
	m := reactive.NewMap[int, int](opts...)
	const span = 64 // keys per worker
	vkey := func(k, i int) int { return k*1_000_000 + i }
	models := make([]map[int]int, rc.workers)
	snap := func() string { return fmt.Sprintf("map: %+v", m.MapStats()) }
	err := fleet(rc, snap, func(id int, rng *prng) error {
		model := make(map[int]int)
		base := id * span
		for i := 0; i < rc.ops; i++ {
			k := base + rng.intn(span)
			switch r := rng.intn(16); {
			case r < 7: // write an identifiable value
				v := vkey(k, i)
				m.Put(k, v)
				model[k] = v
			case r < 10:
				m.Delete(k)
				delete(model, k)
			case r < 12: // deadline-bounded write
				ctx, cancel := context.WithTimeout(context.Background(), rng.µs(50))
				v := vkey(k, i)
				if m.PutCtx(ctx, k, v) == nil {
					model[k] = v
				}
				cancel()
			case r < 14: // cross-worker read; shape-check only
				fk := rng.intn(rc.workers*span + span)
				if v, ok := m.Get(fk); ok && v/1_000_000 != fk {
					return fmt.Errorf("Get(%d) = %d: value written under key %d", fk, v, v/1_000_000)
				}
			default: // deadline-bounded read
				ctx, cancel := context.WithTimeout(context.Background(), rng.µs(50))
				if v, ok, err := m.GetCtx(ctx, k); err == nil && ok && v/1_000_000 != k {
					cancel()
					return fmt.Errorf("GetCtx(%d) = %d: value written under key %d", k, v, v/1_000_000)
				}
				cancel()
			}
		}
		models[id] = model
		return nil
	})
	if err != nil {
		return err
	}
	live := 0
	for id, model := range models {
		live += len(model)
		for k, want := range model {
			if v, ok := m.Get(k); !ok || v != want {
				return fmt.Errorf("worker %d key %d = %d,%v, want %d,true (final state lost)", id, k, v, ok, want)
			}
		}
	}
	if got := m.Len(); got != live {
		return fmt.Errorf("conservation broken: Len = %d, models hold %d live keys", got, live)
	}
	return m.CheckInvariants()
}

// mapEpochChurnCase pins the map in the epoch mode and races readers
// against both epoch write paths, in two phases. In the first, writers
// Put and Delete keys that all start present: every one of those writes
// is a compare-and-swap on the key's value cell, which a delete leaves
// in place as a tombstone, so the phase must not move the table version
// at all. In the second, writers insert fresh keys and delete them
// again: each insert adds its cell to the one table in place after its
// grace period, and compacts the tombstones away once they outnumber
// live keys, so a reader outliving its grace would observe a torn table
// — caught by the value-shape invariant, by the runtime's concurrent
// map access check and by -race through the map's backing arrays. That
// phase must move the version by exactly one per insert. Writers also
// verify the version never regresses.
func mapEpochChurnCase(rc runCtx, opts ...reactive.Option) error {
	m := reactive.NewMap[int, int](opts...)
	const keys = 128
	for k := 0; k < keys; k++ {
		m.Put(k, k*1_000_000)
	}
	var puts, deletes, inserts atomic.Uint64
	snap := func() string { return fmt.Sprintf("map: %+v", m.MapStats()) }
	// phase runs the fleet with write as each writer's ith write; readers
	// read keys below readKeys.
	phase := func(readKeys int, write func(id, i int, rng *prng)) error {
		return fleet(rc, snap, func(id int, rng *prng) error {
			writer := id%4 == 0 // 1 writer per 4 workers: read-mostly, the epoch regime
			var lastVer uint64
			for i := 0; i < rc.ops; i++ {
				if writer {
					write(id, i, rng)
					if ms := m.MapStats(); ms.Version < lastVer {
						return fmt.Errorf("table version regressed: %d -> %d", lastVer, ms.Version)
					} else {
						lastVer = ms.Version
					}
					continue
				}
				k := rng.intn(readKeys)
				switch rng.intn(16) {
				case 0: // snapshot storm: Range copies under a stamp
					n := 0
					m.Range(func(rk, rv int) bool {
						if rv/1_000_000 != rk {
							panic(fmt.Sprintf("Range saw %d under key %d", rv, rk))
						}
						n++
						return n < 8
					})
				default:
					if v, ok := m.Get(k); ok && v/1_000_000 != k {
						return fmt.Errorf("Get(%d) = %d: value written under key %d (torn or reclaimed table)", k, v, v/1_000_000)
					}
				}
			}
			return nil
		})
	}

	// Phase 1: known keys only. Every eighth write, from the first, is a
	// Delete, so any run of three or more ops per worker both deletes
	// and re-inserts into a tombstone.
	v0 := m.MapStats().Version
	err := phase(keys, func(_, i int, rng *prng) {
		k := rng.intn(keys)
		if i%8 == 0 {
			m.Delete(k)
			deletes.Add(1)
		} else {
			m.Put(k, k*1_000_000+i)
			puts.Add(1)
		}
	})
	if err != nil {
		return err
	}
	if published, d, p := m.MapStats().Version-v0, deletes.Load(), puts.Load(); d > 0 && published != 0 {
		return fmt.Errorf("%d puts and %d deletes of known keys moved the table version by %d, want 0 (each a store into the key's value cell)", p, d, published)
	}

	// Phase 2: every write inserts a key no earlier write used, then
	// deletes it, leaving a tombstone for a later insert to compact.
	v1 := m.MapStats().Version
	err = phase(keys, func(id, i int, _ *prng) {
		k := keys + id*rc.ops + i
		m.Put(k, k*1_000_000)
		inserts.Add(1)
		m.Delete(k)
	})
	if err != nil {
		return err
	}
	if published, n := m.MapStats().Version-v1, inserts.Load(); published != n {
		return fmt.Errorf("%d fresh-key inserts moved the table version by %d, want one each", n, published)
	}
	if got := m.Stats().Mode; got != reactive.ModeEpoch {
		return fmt.Errorf("mode = %v at exit, want epoch (empty limit should pin it)", got)
	}
	return m.CheckInvariants()
}
