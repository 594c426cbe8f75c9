package reactive

import (
	"context"
	"fmt"
	"hash/maphash"
	"iter"
	"maps"
	"math"
	"sync/atomic"

	"repro/reactive/internal/affinity"
	"repro/reactive/internal/chaos"
	"repro/reactive/internal/epoch"
	"repro/reactive/internal/waitq"
	"repro/reactive/modal"
)

// Map's engine-local mode indices, and the public modes they surface
// as, in chain order (see MapTable).
const (
	mapLocked  modal.Mode = 0
	mapSharded modal.Mode = 1
	mapEpoch   modal.Mode = 2
)

var mapModes = []Mode{ModeLocked, ModeSharded, ModeEpoch}

// mapModeTable is Map's 3-mode chain: the single-lock protocol ↔
// hash-sharded locks ↔ the published immutable table. It is the first
// table in the package attached to a data structure rather than a
// synchronization primitive: the engine, the detection plumbing, and the
// policy interface are reused unchanged.
var mapModeTable = modal.NewTable(
	[]modal.Step{{Residual: ResidualCheapHigh, On: modal.Busy}, {Residual: ResidualCheapHigh, On: modal.BusyRead}},
	[]modal.Step{{Residual: ResidualScalableLow, On: modal.Calm}, {Residual: ResidualScalableLow, On: modal.Calm}})

// MapTable returns the chain Map runs on: mode index 0 =
// ModeLocked, 1 = ModeSharded, 2 = ModeEpoch. The table is immutable
// and shared; it is exported so harnesses and experiments can drive the
// exact state machine the map uses rather than a hand-maintained copy.
func MapTable() *modal.Table { return mapModeTable }

// mapShard is one sharded-mode partition: a spin word and the partition
// map, padded so neighboring shard locks never share a coherence
// granule. The lock is the short-term spin word (not a Mutex): shard
// critical sections are single bounded map operations, so parking
// machinery would cost more than the longest possible wait.
type mapShard[K comparable, V any] struct {
	lock waitq.Lock
	m    map[K]V
	_    [affinity.CacheLineSize - 16]byte
}

// cell is one key's value slot in the epoch mode: a pointer to a fresh,
// never-mutated box holding the key's value, or nil, a tombstone (the
// key is absent but keeps its cell). A write to a key that has a cell
// is one compare-and-swap of the cell, which leaves the table as it is.
type cell[V any] struct{ atomic.Pointer[V] }

// values yields every key of a cell table whose cell holds a value,
// with that value.
func values[K comparable, V any](cells map[K]*cell[V]) iter.Seq2[K, V] {
	return func(yield func(K, V) bool) {
		for k, c := range cells {
			if p := c.Load(); p != nil && !yield(k, *p) {
				return
			}
		}
	}
}

// lookup reads key's value out of the epoch table. The caller is inside
// an epoch read section or holds wl.
func (mp *Map[K, V]) lookup(key K) (v V, ok bool) {
	if c, had := mp.cells[key]; had {
		if p := c.Load(); p != nil {
			return *p, true
		}
	}
	return v, false
}

// Map is a reactive concurrent hash map — the first adaptive *data
// structure* in this package, demonstrating that the modal engine
// generalizes past locks: the same chain tables, streak detection,
// Observe/TryCommit plumbing, and installable policy.Congestion that
// drive Mutex and FetchOp here select among three map protocols as the
// access pattern changes:
//
//   - ModeLocked — one hash table guarded by the adaptive Mutex. One
//     lock word per operation; the zero-value default, cheapest while
//     operations rarely collide.
//   - ModeSharded — a power-of-two array of hash-partitioned shards,
//     each under its own padded spin word. Operations on different
//     shards proceed in parallel; contention on one key's shard is the
//     detection signal in both directions.
//   - ModeEpoch — a read-mostly index in the userspace-RCU style: Get
//     enters the grace-period kernel (a deposit in its per-P cell),
//     finds the key's value cell in the table and loads it, writing
//     nothing outside its own cache-line-padded cell — contended reads
//     generate zero shared-cacheline coherence traffic. A Delete leaves
//     its key's cell in place holding nil, so a Put or Delete of a key
//     that has a cell finds it as a Get does and compare-and-swaps it:
//     no lock, no grace period. Only an insert of a key with no cell
//     changes the table: it takes the writer lock, claims the kernel
//     (the same reactive/internal/epoch kernel RWMutex's cell-based
//     modes run on), waits out a grace period proving no reader or cell
//     writer inside, and adds the key's cell in place. Once tombstoned
//     cells outnumber live keys, that insert also drops them.
//
// Reads and writes that arrive during an epoch-mode writer's grace
// claim fall back to the writer lock, so writers cannot starve; a Get
// never blocks a Get. Mode transitions run as a writer-drain-style
// consensus — writer lock plus every shard lock, or writer lock plus a
// completed grace period — and move every key exactly once, so no
// transition can lose or duplicate a key.
//
// The zero value is an empty ModeLocked map ready for use. A Map must
// not be copied after first use. All methods are safe for concurrent
// use; Range and Len are weakly consistent snapshots, as in sync.Map.
type Map[K comparable, V any] struct {
	// wl is the writer lock: the ModeLocked table lock, the epoch-mode
	// writer serializer, and the transition lock, in every mode. It is
	// itself adaptive (spin ↔ park), so the locked mode inherits the
	// mutex chain's waiting behavior, and its waitq gives GetCtx and
	// PutCtx their cancellable parked waits.
	wl Mutex

	eng modal.Engine

	// count is the live-key gauge, maintained under each mode's
	// exclusion (in ModeEpoch, by what each cell CAS replaced) so Len is
	// O(1) in every mode.
	count atomic.Int64

	// table is the ModeLocked store; guarded by wl.
	table map[K]V

	// Sharded-mode state. The shard for a key is chosen by hash, not by
	// the affinity.Pin P-index the per-P cells use: a map shard is data
	// placement — every operation on one key must reach one partition
	// whatever processor it runs on — so the exact-P index that works
	// for commutative per-P cells (Counter, FetchOp) would scatter one
	// key across shards here. The affinity substrate still sizes the
	// array (next power of two ≥ GOMAXPROCS). shardsUp tells MapStats,
	// which reads without wl, that the array exists.
	seed     maphash.Seed
	shards   []mapShard[K, V]
	shardsUp atomic.Bool

	// Epoch-mode state: the key → value cell table (cells: read inside
	// an epoch section or under wl, changed in place only under wl and
	// the kernel's claim after a grace period, and ordered to readers by
	// the gate's store and load, as RWMutex's epoch mode orders its
	// data), how many times it has been built or gained a key (version),
	// and the grace-period kernel readers and cell writers enter and
	// inserting writers claim and wait on (ek).
	cells   map[K]*cell[V]
	version atomic.Uint64
	ek      epoch.Kernel
}

// NewMap builds a Map with the given options. NewMap() is equivalent to
// a zero-value Map; WithInitialMode accepts ModeLocked, ModeSharded,
// and ModeEpoch. The tunables live in the writer lock, which the
// map's own detection and grace periods read them from.
func NewMap[K comparable, V any](opts ...Option) *Map[K, V] {
	mp := &Map[K, V]{}
	construct(opts, &mp.wl.cfg, &mp.eng, mapModes, mp.switchMap)
	return mp
}

// shardsInit builds the shard array and the hash seed the first time
// the sharded mode is entered, before it is published. The caller holds
// wl, which is all the once-ness needs.
func (mp *Map[K, V]) shardsInit() {
	if mp.shards == nil {
		mp.seed = maphash.MakeSeed()
		mp.shards = make([]mapShard[K, V], affinity.Shards())
		mp.shardsUp.Store(true)
	}
}

// shardIndex places a key: hash, masked into the power-of-two array.
func (mp *Map[K, V]) shardIndex(key K) int {
	return int(maphash.Comparable(mp.seed, key)) & (len(mp.shards) - 1)
}

// lockW acquires the writer lock, reporting whether the acquisition
// contended (the ModeLocked detection signal) and whether done closed
// first. A nil done means the uncancellable path.
func (mp *Map[K, V]) lockW(done <-chan struct{}) (contended, aborted bool) {
	if mp.wl.TryLock() {
		return false, false
	}
	return true, !mp.wl.lockFast() && mp.wl.lockSlow(done)
}

// lockAllShards acquires every shard lock in index order — one half of
// the transition consensus: with wl and all shard locks held, no
// operation is inside any protocol (locked ops hold wl, sharded ops
// hold their shard, and both revalidate the mode after acquiring).
func (mp *Map[K, V]) lockAllShards() {
	for i := range mp.shards {
		mp.shards[i].lock.Lock(nil)
	}
}

func (mp *Map[K, V]) unlockAllShards() {
	for i := range mp.shards {
		mp.shards[i].lock.Unlock()
	}
}

// scatter moves every key of src into its shard — the key mover of both
// edges into the sharded mode. The caller holds every shard lock.
func (mp *Map[K, V]) scatter(src iter.Seq2[K, V]) {
	for k, v := range src {
		sh := &mp.shards[mp.shardIndex(k)]
		if sh.m == nil {
			sh.m = make(map[K]V)
		}
		sh.m[k] = v
	}
}

// gather empties the shards into one fresh table — the key mover of both
// edges out of the sharded mode. The caller holds every shard lock.
func (mp *Map[K, V]) gather() map[K]V {
	out := make(map[K]V, mp.count.Load())
	for i := range mp.shards {
		maps.Copy(out, mp.shards[i].m)
		mp.shards[i].m = nil
	}
	return out
}

// mutate applies one Put (or, with del, one Delete) to *store, creating
// the map on first use, and returns the change in live keys: the one
// place a mutation and its count accounting are spelled for the locked
// table and a shard's partition (the epoch mode's cells count in
// storeCell). The caller holds store's exclusion, and adds a nonzero
// delta to the count gauge — skipping the zero keeps an overwrite off
// the gauge's shared cache line.
func mutate[K comparable, V any](store *map[K]V, key K, val V, del bool) (delta int64) {
	_, had := (*store)[key]
	if del {
		delete(*store, key)
		if had {
			return -1
		}
		return 0
	}
	if *store == nil {
		*store = make(map[K]V)
	}
	(*store)[key] = val
	if had {
		return 0
	}
	return 1
}

// note classifies one ModeLocked or ModeSharded operation after it
// released its lock (wl or its shard), by whether the acquisition
// contended. Contended reads are told apart because only they vote the
// sharded store up to the epoch protocol (readers colliding on a shard
// word is exactly the coherence traffic the published-table mode
// eliminates), while a contended write only breaks the down-streak: the
// epoch mode writes a known key with one compare-and-swap, but a
// write-only map has no reads for it to serve. The sharded→locked step
// gathers every key, so its calm streak is priced like a competitive
// switch (and like sync.Map's promotion, by the keys it moves): at
// least max(EmptyLimit, live keys) uncontended operations in a row.
func (mp *Map[K, V]) note(from modal.Mode, contended, read bool) {
	s := signalOf(contended)
	if contended && read {
		s = modal.BusyRead
	}
	lim := mp.wl.cfg.limits()
	if from == mapSharded {
		lim[1] = int32(max(int64(lim[1]), min(mp.count.Load(), math.MaxInt32)))
	}
	if to, fire := mp.eng.Observe(mapModeTable, from, s, lim); fire {
		mp.switchMap(from, to)
	}
}

// switchMap performs one transition of the chain under the full
// consensus: wl, plus every shard lock when the sharded store is in
// play. Every op revalidates the mode after acquiring its own lock, so
// with all locks held no operation is mid-protocol and the key move is
// atomic — no transition can lose or duplicate a key. The epoch →
// sharded edge is not handled here: it commits inside putEpoch, under
// the inserter's claim, where reader exclusion is already proved.
func (mp *Map[K, V]) switchMap(want, next modal.Mode) {
	mp.wl.Lock()
	defer mp.wl.Unlock()
	if mp.eng.Mode() != want {
		return // lost the race to another transition
	}
	switch {
	case want == mapLocked && next == mapSharded:
		mp.shardsInit()
		mp.lockAllShards()
		mp.scatter(maps.All(mp.table))
		mp.eng.TryCommit(mapModeTable, mapLocked, mapSharded)
		mp.unlockAllShards()
		mp.table = nil
	case want == mapSharded && next == mapLocked:
		mp.lockAllShards()
		mp.table = mp.gather()
		mp.eng.TryCommit(mapModeTable, mapSharded, mapLocked)
		mp.unlockAllShards()
	case want == mapSharded && next == mapEpoch:
		mp.lockAllShards()
		mp.cells = make(map[K]*cell[V], mp.count.Load())
		for k, v := range mp.gather() {
			c := new(cell[V])
			c.Store(&v)
			mp.cells[k] = c
		}
		mp.version.Add(1)
		// Select the kernel before the commit publishes the mode, so the
		// first Get that dispatches to the epoch path validates
		// successfully. No claim: until this store sets the gate's mode
		// bit every Enter is refused, so no reader was inside the table
		// while it was built.
		mp.ek.Select(true)
		mp.eng.TryCommit(mapModeTable, mapSharded, mapEpoch)
		mp.unlockAllShards()
	}
}

// Get reports the value stored under key. In ModeEpoch the fast path
// performs no allocation and writes nothing outside its own per-P
// cache-line-padded cell.
func (mp *Map[K, V]) Get(key K) (V, bool) {
	v, ok, _ := mp.get(nil, key)
	return v, ok
}

// GetCtx is Get with cancellable blocking: if ctx has already ended,
// or the lookup must wait on the writer lock or a shard lock and ctx
// ends first, it returns ctx.Err(). The epoch-mode fast path never
// blocks, but the entry check still fires — a dead context never
// observes the map, matching LockCtx/RLockCtx.
func (mp *Map[K, V]) GetCtx(ctx context.Context, key K) (V, bool, error) {
	if err := ctx.Err(); err != nil {
		var zero V
		return zero, false, err
	}
	v, ok, aborted := mp.get(ctx.Done(), key)
	return v, ok, ctxErr(ctx, aborted)
}

// get looks key up. Its third result reports that done closed while the
// lookup waited for a lock.
func (mp *Map[K, V]) get(done <-chan struct{}, key K) (V, bool, bool) {
	var zero V
	for {
		switch mp.eng.Mode() {
		case mapLocked:
			contended, aborted := mp.lockW(done)
			if aborted {
				return zero, false, true
			}
			if mp.eng.Mode() != mapLocked {
				mp.wl.Unlock()
				continue
			}
			v, ok := mp.table[key]
			mp.wl.Unlock()
			if contended || !mp.eng.CalmBottom(mapModeTable) {
				mp.note(mapLocked, contended, true)
			}
			return v, ok, false
		case mapSharded:
			sh := &mp.shards[mp.shardIndex(key)]
			contended, aborted := sh.lock.Lock(done)
			if aborted {
				return zero, false, true
			}
			if mp.eng.Mode() != mapSharded {
				sh.lock.Unlock()
				continue
			}
			v, ok := sh.m[key]
			sh.lock.Unlock()
			mp.note(mapSharded, contended, true)
			return v, ok, false
		default: // mapEpoch
			// One epoch-mode read: enter the kernel, find the key's cell
			// in the table and load it, exit. Between a successful enter
			// and its exit the kernel's exclusion argument (DESIGN.md §8)
			// holds the table still: a writer changes it only under a
			// claim, after a grace period this reader's deposit blocks.
			// The cell itself may take a write meanwhile; its load is the
			// read's linearization point.
			if c, _ := mp.ek.Enter(); c != nil {
				v, ok := mp.lookup(key)
				mp.ek.Exit(c)
				return v, ok, false
			}
			// Refused: a writer's grace claim is in place (or the mode
			// just moved). Read authoritatively under the writer lock, so
			// writers cannot starve behind a read storm.
			if _, aborted := mp.lockW(done); aborted {
				return zero, false, true
			}
			if mp.eng.Mode() != mapEpoch {
				mp.wl.Unlock()
				continue
			}
			v, ok := mp.lookup(key)
			mp.wl.Unlock()
			return v, ok, false
		}
	}
}

// Put stores val under key. In ModeEpoch, a Put of a key that has a
// value cell — present, or deleted since the table last dropped its
// tombstones — is one compare-and-swap of a freshly allocated copy of
// val (as sync.Map.Store allocates) inside an epoch read section, with
// no lock taken and no grace period; only an insert of a key with no
// cell takes the writer lock and waits out the readers to add it.
func (mp *Map[K, V]) Put(key K, val V) {
	mp.put(nil, key, val, false)
}

// PutCtx is Put with cancellable blocking: if ctx has already ended,
// or the store must wait on the writer lock or a shard lock and ctx
// ends first, it returns ctx.Err() with the map unchanged. Once the
// locks are held the mutation always completes — in ModeEpoch that
// includes the grace period (bounded: epoch readers run no user code),
// so a mutation is never half-published.
func (mp *Map[K, V]) PutCtx(ctx context.Context, key K, val V) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return ctxErr(ctx, mp.put(ctx.Done(), key, val, false))
}

// Delete removes the value stored under key, if any. In ModeEpoch it
// never takes a lock: it leaves the key's value cell in place, holding
// nil.
func (mp *Map[K, V]) Delete(key K) {
	mp.put(nil, key, *new(V), true)
}

// put stores val under key (with del, deletes key). It reports true,
// with the map unchanged, when done closes while it waits for a lock.
func (mp *Map[K, V]) put(done <-chan struct{}, key K, val V, del bool) bool {
	for {
		switch mp.eng.Mode() {
		case mapLocked:
			contended, aborted := mp.lockW(done)
			if aborted {
				return true
			}
			if mp.eng.Mode() != mapLocked {
				mp.wl.Unlock()
				continue
			}
			if d := mutate(&mp.table, key, val, del); d != 0 {
				mp.count.Add(d)
			}
			mp.wl.Unlock()
			if contended || !mp.eng.CalmBottom(mapModeTable) {
				mp.note(mapLocked, contended, false)
			}
			return false
		case mapSharded:
			sh := &mp.shards[mp.shardIndex(key)]
			contended, aborted := sh.lock.Lock(done)
			if aborted {
				return true
			}
			if mp.eng.Mode() != mapSharded {
				sh.lock.Unlock()
				continue
			}
			if d := mutate(&sh.m, key, val, del); d != 0 {
				mp.count.Add(d)
			}
			sh.lock.Unlock()
			mp.note(mapSharded, contended, false)
			return false
		default: // mapEpoch
			// A Delete's box is nil, the tombstone; a Put's is the epoch
			// write's one allocation, made on this branch only.
			var box *V
			if !del {
				box = new(V)
				*box = val
			}
			if mp.storeEpoch(key, box) {
				return false
			}
			if _, aborted := mp.lockW(done); aborted {
				return true
			}
			if mp.eng.Mode() != mapEpoch {
				mp.wl.Unlock()
				continue
			}
			mp.putEpoch(key, box)
			mp.wl.Unlock()
			return false
		}
	}
}

// storeEpoch is the lock-free epoch write: inside an epoch read
// section, as Get does, it finds key's value cell and stores box into
// it (storeCell). It reports false, having changed nothing, when the
// write needs the writer lock: a refused Enter (a grace claim is in
// place, or the mode moved) or a Put of a key with no cell. A Delete of
// a key with no cell is done: the key is absent.
//
// The open section is what makes the store safe without wl: every
// change to the table (an insert, its compaction, a demotion to
// ModeSharded) is made under a claim after a grace period, which this
// section blocks.
func (mp *Map[K, V]) storeEpoch(key K, box *V) bool {
	rc, _ := mp.ek.Enter()
	if rc == nil {
		return false
	}
	c, ok := mp.cells[key]
	if ok {
		mp.storeCell(c, box)
	}
	mp.ek.Exit(rc)
	return ok || box == nil
}

// storeCell compare-and-swaps box (nil for a Delete) into a value cell,
// moving the live-key gauge by what the swap replaced: a value into a
// tombstone is an insert, nil over a value a delete. A Delete of a
// tombstone changes nothing.
func (mp *Map[K, V]) storeCell(c *cell[V], box *V) {
	for {
		old := c.Load()
		if old == nil && box == nil {
			return
		}
		chaos.Point("map.cell.store")
		if c.CompareAndSwap(old, box) {
			switch {
			case old == nil:
				mp.count.Add(1)
			case box == nil:
				mp.count.Add(-1)
			}
			return
		}
	}
}

// putEpoch applies one epoch-mode write under wl: the fallback of a
// write storeEpoch could not finish. A key with a cell takes storeCell.
// A Put of a key with no cell is an insert, the one write that changes
// the table: claim the kernel and wait out a grace period, after which
// no reader or cell writer is inside the table and none can enter until
// the claim is released (a refused one falls back to wl, held here).
// The wait is uncancellable — epoch read sections run no user code, so
// it is bounded. Then, once tombstoned cells outnumber live keys, drop
// every one of them (no cell writer can revive one meanwhile), and add
// the key's cell in place. Last, run the epoch protocol's scale-down
// detection, which may demote the map, and release the claim.
func (mp *Map[K, V]) putEpoch(key K, box *V) {
	if c, ok := mp.cells[key]; ok {
		mp.storeCell(c, box)
		return
	}
	if box == nil {
		return // a Delete of an absent key
	}
	c := new(cell[V])
	c.Store(box)
	mp.ek.Claim()
	// Readers are internal enter/exit pairs, so unlike RWMutex a
	// negative sum would be a package bug, not caller misuse;
	// CheckInvariants verifies zero at quiescence.
	quiet, _ := mp.ek.Wait(mp.wl.cfg.pollBudget(), nil, func() bool {
		chaos.Point("map.grace.sweep")
		return mp.ek.Sum() == 0
	})
	if keys := mp.count.Load(); int64(len(mp.cells))-keys > keys {
		for k, tc := range mp.cells {
			if tc.Load() == nil {
				delete(mp.cells, k)
			}
		}
	}
	mp.cells[key] = c
	mp.count.Add(1)
	mp.version.Add(1)
	if _, fire := mp.eng.Observe(mapModeTable, mapEpoch, signalOf(!quiet), mp.wl.cfg.limits()); fire {
		// A streak of quiet grace periods: the table went unread across
		// whole writer rounds — the write-dominated regime where the
		// grace periods are pure overhead.
		mp.shardsInit()
		mp.lockAllShards()
		mp.scatter(values(mp.cells))
		mp.cells = nil
		mp.ek.Select(false)
		mp.eng.TryCommit(mapModeTable, mapEpoch, mapSharded)
		mp.unlockAllShards()
	}
	mp.ek.Release()
}

// Len reports the number of keys in the map. It is an O(1) gauge read,
// weakly consistent under concurrent mutation.
func (mp *Map[K, V]) Len() int { return int(mp.count.Load()) }

// Range calls fn for every key/value pair in a weakly consistent
// snapshot of the map, stopping early if fn returns false. The snapshot
// is taken first and fn runs on it afterward, so fn is never invoked
// under any Map lock and may itself call back into the map. In
// ModeEpoch the snapshot fixes which keys are visited (those with a
// value cell, deleted ones included), and each is read at some moment
// between the snapshot and fn's call and yielded if it held a value.
func (mp *Map[K, V]) Range(fn func(key K, val V) bool) {
	for k, v := range mp.snapshot() {
		if !fn(k, v) {
			return
		}
	}
}

// snapshot copies the map's current contents under the current mode's
// exclusion, retrying if a transition moves the mode mid-copy, and
// yields the copy's pairs.
func (mp *Map[K, V]) snapshot() iter.Seq2[K, V] {
	for {
		switch mp.eng.Mode() {
		case mapLocked:
			mp.wl.Lock()
			if mp.eng.Mode() != mapLocked {
				mp.wl.Unlock()
				continue
			}
			out := maps.Clone(mp.table)
			mp.wl.Unlock()
			return maps.All(out)
		case mapSharded:
			out := make(map[K]V, mp.count.Load())
			ok := true
			for i := range mp.shards {
				sh := &mp.shards[i]
				sh.lock.Lock(nil)
				if mp.eng.Mode() != mapSharded {
					sh.lock.Unlock()
					ok = false
					break
				}
				maps.Copy(out, sh.m)
				sh.lock.Unlock()
			}
			if ok {
				return maps.All(out)
			}
		default: // mapEpoch
			if cells, valid := mp.snapshotEpoch(); valid {
				return values(cells)
			}
			mp.wl.Lock()
			if mp.eng.Mode() != mapEpoch {
				mp.wl.Unlock()
				continue
			}
			cells := maps.Clone(mp.cells)
			mp.wl.Unlock()
			return values(cells)
		}
	}
}

// snapshotEpoch copies the cell table as an epoch reader — the copy
// (bounded, no user code) is the only work an epoch-mode grace period
// ever waits on besides lookups and cell writes. The values are loaded
// from the copy's cells later, outside the read section: cells are
// never freed and their boxes never change, so the loads need no
// section.
func (mp *Map[K, V]) snapshotEpoch() (map[K]*cell[V], bool) {
	c, _ := mp.ek.Enter()
	if c == nil {
		return nil, false
	}
	cells := maps.Clone(mp.cells)
	mp.ek.Exit(c)
	return cells, true
}

// MapStats extends the unified Stats shape with the map's own gauges
// and grace-period counters.
type MapStats struct {
	Stats
	// Shards is the shard-array size, 0 until the sharded store has
	// been built. A gauge.
	Shards int `json:"shards"`
	// Version is the epoch table's version: how many times it has been
	// built from the sharded store or gained a fresh key. Monotonic.
	Version uint64 `json:"version"`
	// Graces counts completed epoch-mode grace periods; QuietGraces
	// counts those that found no online reader at all (the scale-down
	// signal). Monotonic.
	Graces      uint64 `json:"graces"`
	QuietGraces uint64 `json:"quiet_graces"`
}

// Stats returns a snapshot of the map's adaptive state in the unified
// shape: the current protocol, the lifetime transition count, and the
// number of goroutines parked on the writer lock or a grace period.
func (mp *Map[K, V]) Stats() Stats {
	return Stats{
		Mode:     mapModes[mp.eng.Mode()],
		Switches: mp.eng.Switches(),
		Waiters:  mp.wl.Stats().Waiters + mp.ek.Waiters(),
	}
}

// MapStats returns Stats plus the map-specific gauges.
func (mp *Map[K, V]) MapStats() MapStats {
	ms := MapStats{
		Stats:       mp.Stats(),
		Version:     mp.version.Load(),
		Graces:      mp.ek.Graces(),
		QuietGraces: mp.ek.QuietGraces(),
	}
	if mp.shardsUp.Load() {
		ms.Shards = len(mp.shards)
	}
	return ms
}

// CheckInvariants verifies the map's quiescent-state invariants: the
// writer lock is free and sound, every shard lock is free, the epoch
// kernel is quiescent (no claim, mode bit agreeing with the engine,
// cells summing to zero), no grace waiter is parked, and the live-key
// gauge equals the key count of the current mode's authoritative store
// — in ModeEpoch, the cells holding a value (a tombstone is legal). See
// the package note in check.go: quiescent diagnostics, not production
// code.
func (mp *Map[K, V]) CheckInvariants() error {
	if err := mp.wl.CheckInvariants(); err != nil {
		return fmt.Errorf("reactive: Map writer mutex: %w", err)
	}
	if err := mp.eng.Check(mapModeTable); err != nil {
		return fmt.Errorf("reactive: Map engine: %w", err)
	}
	if mp.shardsUp.Load() {
		for i := range mp.shards {
			if mp.shards[i].lock.Held() {
				return fmt.Errorf("reactive: Map shard %d lock held at quiescence", i)
			}
		}
	}
	if err := mp.ek.Check(mp.eng.Mode() == mapEpoch); err != nil {
		return fmt.Errorf("reactive: Map %w", err)
	}
	live := 0
	switch mp.eng.Mode() {
	case mapLocked:
		live = len(mp.table)
	case mapSharded:
		for i := range mp.shards {
			live += len(mp.shards[i].m)
		}
	default:
		for _, c := range mp.cells {
			if c.Load() != nil {
				live++
			}
		}
	}
	if c := mp.count.Load(); int(c) != live {
		return fmt.Errorf("reactive: Map count gauge %d != live keys %d", c, live)
	}
	return nil
}
