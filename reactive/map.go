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

// mapStore is one partition of the lock-based modes: a spin word and
// the map it guards. ModeLocked runs on one store, ModeSharded on an
// array of them. The lock is the short-term spin word (not a Mutex): a
// store's critical sections are single bounded map operations, so
// parking machinery would cost more than the longest possible wait.
type mapStore[K comparable, V any] struct {
	lock waitq.Lock
	m    map[K]V
}

// mapShard is one sharded-mode store, padded so neighboring shard locks
// never share a coherence granule.
type mapShard[K comparable, V any] struct {
	mapStore[K, V]
	_ [affinity.CacheLineSize - 16]byte
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
//   - ModeLocked — one hash table under one spin word: the sharded
//     store at one partition. One lock word per operation; the
//     zero-value default, cheapest while operations rarely collide.
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
// consensus — writer lock plus every store lock, or writer lock plus a
// completed grace period — and move every key exactly once, so no
// transition can lose or duplicate a key.
//
// The zero value is an empty ModeLocked map ready for use. A Map must
// not be copied after first use. All methods are safe for concurrent
// use; Range and Len are weakly consistent snapshots, as in sync.Map.
type Map[K comparable, V any] struct {
	eng modal.Engine

	// seed and cells (see below) fill eng's cache line with the words a
	// Get loads, which only detection stores to; the words operations
	// write follow, and the queue locks come a line later.
	seed  maphash.Seed
	cells map[K]*cell[V]

	// Sharded-mode state. The shard for a key is chosen by hashing with
	// seed, not by the affinity.Pin P-index the per-P cells use: a map
	// shard is data placement — every operation on one key must reach
	// one partition whatever processor it runs on — so the exact-P index
	// that works for commutative per-P cells (Counter, FetchOp) would
	// scatter one key across shards here. The affinity substrate still
	// sizes the array (next power of two ≥ GOMAXPROCS). shardsUp tells
	// MapStats, which reads without wl, that the array exists.
	shards   []mapShard[K, V]
	shardsUp atomic.Bool

	// count is the live-key gauge, maintained under each mode's
	// exclusion (in ModeEpoch, by what each cell CAS replaced) so Len is
	// O(1) in every mode.
	count atomic.Int64

	// one is the ModeLocked store. The lock order is wl, one, then the
	// shards in index order.
	one mapStore[K, V]

	// Epoch-mode state: the key → value cell table (cells: read inside
	// an epoch section or under wl, changed in place only under wl and
	// the kernel's claim after a grace period, and ordered to readers by
	// the gate's store and load, as RWMutex's epoch mode orders its
	// data), how many times it has been built or gained a key (version),
	// and the grace-period kernel readers and cell writers enter and
	// inserting writers claim and wait on (ek).
	version atomic.Uint64
	ek      epoch.Kernel

	// wl is the writer lock: the transition lock in every mode, the
	// epoch-mode writer serializer, and the fallback of an epoch-mode
	// operation the kernel refuses. It is itself adaptive (spin ↔ park),
	// its waitq gives those fallbacks their cancellable parked waits,
	// and its config holds the map's tunables.
	wl Mutex
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

// store returns the store that holds key in lock-based mode m: the
// locked store, or the key's shard.
func (mp *Map[K, V]) store(m modal.Mode, key K) *mapStore[K, V] {
	if m == mapLocked {
		return &mp.one
	}
	return &mp.shards[mp.shardIndex(key)].mapStore
}

// stores yields every store in lock order: the locked store, then the
// shards once they exist. A store outside the current mode is empty.
func (mp *Map[K, V]) stores() iter.Seq[*mapStore[K, V]] {
	return func(yield func(*mapStore[K, V]) bool) {
		if !yield(&mp.one) || !mp.shardsUp.Load() {
			return
		}
		for i := range mp.shards {
			if !yield(&mp.shards[i].mapStore) {
				return
			}
		}
	}
}

// lockW acquires the writer lock, reporting whether done closed first.
// A nil done means the uncancellable path.
func (mp *Map[K, V]) lockW(done <-chan struct{}) (aborted bool) {
	return !mp.wl.lockFast() && mp.wl.lockSlow(done)
}

// lockAll acquires every store lock in lock order — one half of the
// transition consensus: with wl and every store lock held, no operation
// is inside a lock-based protocol (each holds its store and revalidates
// the mode after acquiring it).
func (mp *Map[K, V]) lockAll() {
	for st := range mp.stores() {
		st.lock.Lock(nil)
	}
}

func (mp *Map[K, V]) unlockAll() {
	for st := range mp.stores() {
		st.lock.Unlock()
	}
}

// scatter moves every key of src into its shard — the key mover of both
// edges into the sharded mode; the keys move, so the gauge stays. The
// caller holds every store lock.
func (mp *Map[K, V]) scatter(src iter.Seq2[K, V]) {
	for k, v := range src {
		mp.shards[mp.shardIndex(k)].mutate(k, v, false)
	}
}

// gather empties the shards into one fresh table — the key mover of both
// edges out of the sharded mode. The caller holds every store lock.
func (mp *Map[K, V]) gather() map[K]V {
	out := make(map[K]V, mp.count.Load())
	for i := range mp.shards {
		maps.Copy(out, mp.shards[i].m)
		mp.shards[i].m = nil
	}
	return out
}

// mutate applies one Put (or, with del, one Delete) to the store,
// creating its map on first use, and returns the change in live keys:
// the one place a mutation and its count accounting are spelled for the
// lock-based modes (the epoch mode's cells count in storeCell). The
// caller holds the store's lock, and adds a nonzero delta to the count
// gauge — skipping the zero keeps an overwrite off the gauge's shared
// cache line.
func (st *mapStore[K, V]) mutate(key K, val V, del bool) (delta int64) {
	_, had := st.m[key]
	if del {
		delete(st.m, key)
		if had {
			return -1
		}
		return 0
	}
	if st.m == nil {
		st.m = make(map[K]V)
	}
	st.m[key] = val
	if had {
		return 0
	}
	return 1
}

// note classifies one ModeLocked or ModeSharded operation after it
// released its store's lock, by whether the acquisition contended.
// Contended reads are told apart because only they vote the sharded
// store up to the epoch protocol (readers colliding on a shard word is
// exactly the coherence traffic the published-table mode eliminates),
// while a contended write only breaks the down-streak: the epoch mode
// writes a known key with one compare-and-swap, but a write-only map
// has no reads for it to serve. The sharded→locked step
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
// consensus: wl plus every store lock. Every op revalidates the mode
// after acquiring its own lock, so with all locks held no operation is
// mid-protocol and the key move is atomic — no transition can lose or
// duplicate a key. The epoch → sharded edge is not handled here: it
// commits inside putEpoch, under the inserter's claim, where reader
// exclusion is already proved.
func (mp *Map[K, V]) switchMap(want, next modal.Mode) {
	mp.wl.Lock()
	defer mp.wl.Unlock()
	if mp.eng.Mode() != want {
		return // lost the race to another transition
	}
	mp.shardsInit()
	mp.lockAll()
	defer mp.unlockAll()
	switch {
	case want == mapLocked: // locked → sharded
		mp.scatter(maps.All(mp.one.m))
		mp.one.m = nil
	case next == mapLocked: // sharded → locked
		mp.one.m = mp.gather()
	default: // sharded → epoch
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
	}
	mp.eng.TryCommit(mapModeTable, want, next)
}

// Get reports the value stored under key. In ModeEpoch the fast path
// performs no allocation and writes nothing outside its own per-P
// cache-line-padded cell.
func (mp *Map[K, V]) Get(key K) (V, bool) {
	v, ok, _ := mp.get(nil, key)
	return v, ok
}

// GetCtx is Get with cancellable blocking: if ctx has already ended,
// or the lookup must wait on a store lock or the writer lock and ctx
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
		switch m := mp.eng.Mode(); m {
		case mapLocked, mapSharded:
			st := mp.store(m, key)
			contended, aborted := st.lock.Lock(done)
			if aborted {
				return zero, false, true
			}
			if mp.eng.Mode() != m {
				st.lock.Unlock()
				continue
			}
			v, ok := st.m[key]
			st.lock.Unlock()
			if m == mapSharded || contended || !mp.eng.CalmBottom(mapModeTable) {
				mp.note(m, contended, true)
			}
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
			if mp.lockW(done) {
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
// or the store must wait on a store lock or the writer lock and ctx
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
		switch m := mp.eng.Mode(); m {
		case mapLocked, mapSharded:
			st := mp.store(m, key)
			contended, aborted := st.lock.Lock(done)
			if aborted {
				return true
			}
			if mp.eng.Mode() != m {
				st.lock.Unlock()
				continue
			}
			if d := st.mutate(key, val, del); d != 0 {
				mp.count.Add(d)
			}
			st.lock.Unlock()
			if m == mapSharded || contended || !mp.eng.CalmBottom(mapModeTable) {
				mp.note(m, contended, false)
			}
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
			if mp.lockW(done) {
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
		mp.lockAll()
		mp.scatter(values(mp.cells))
		mp.cells = nil
		mp.ek.Select(false)
		mp.eng.TryCommit(mapModeTable, mapEpoch, mapSharded)
		mp.unlockAll()
	}
	mp.ek.Release()
}

// Len reports the number of keys in the map. It is an O(1) gauge read,
// weakly consistent under concurrent mutation.
func (mp *Map[K, V]) Len() int { return int(mp.count.Load()) }

// Range calls fn for every key/value pair in a weakly consistent
// snapshot of the map, stopping early if fn returns false. The snapshot
// is taken first and fn runs on it afterward, so fn is never invoked
// under any Map lock and may itself call back into the map. The
// snapshot is one slice of pairs, sized by Len; no hash table is built
// for it.
func (mp *Map[K, V]) Range(fn func(key K, val V) bool) {
	for _, e := range mp.snapshot() {
		if !fn(e.key, e.val) {
			return
		}
	}
}

// entry is one pair of a Range snapshot.
type entry[K comparable, V any] struct {
	key K
	val V
}

// snapshot appends the map's pairs to one slice, starting over if a
// transition moves the mode mid-copy: in a lock-based mode each store
// under its own lock, in the epoch mode inside a read section (bounded
// work, no user code), or under wl if the section is refused.
func (mp *Map[K, V]) snapshot() []entry[K, V] {
	// The gauge can read below zero for a moment: an epoch-mode cell
	// writer moves it after its CAS, so a racing Delete's -1 can land
	// before the +1 of the insert it deleted.
	out := make([]entry[K, V], 0, max(mp.count.Load(), 0))
	for {
		out = out[:0]
		m := mp.eng.Mode()
		ok := true
		if m != mapEpoch {
			for st := range mp.stores() {
				st.lock.Lock(nil)
				if ok = mp.eng.Mode() == m; ok {
					out = appendPairs(out, maps.All(st.m))
				}
				st.lock.Unlock()
				if !ok {
					break
				}
			}
		} else if c, _ := mp.ek.Enter(); c != nil {
			out = appendPairs(out, values(mp.cells))
			mp.ek.Exit(c)
		} else {
			mp.wl.Lock()
			if ok = mp.eng.Mode() == m; ok {
				out = appendPairs(out, values(mp.cells))
			}
			mp.wl.Unlock()
		}
		if ok {
			return out
		}
	}
}

// appendPairs appends src's pairs to out.
func appendPairs[K comparable, V any](out []entry[K, V], src iter.Seq2[K, V]) []entry[K, V] {
	for k, v := range src {
		out = append(out, entry[K, V]{k, v})
	}
	return out
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
// writer lock is free and sound, every store lock is free, the epoch
// kernel is quiescent (no claim, mode bit agreeing with the engine,
// cells summing to zero), no grace waiter is parked, and the live-key
// gauge equals the keys in the stores plus the cells holding a value (a
// tombstone is legal; only the current mode's store is nonempty). See
// the package note in check.go: quiescent diagnostics, not production
// code.
func (mp *Map[K, V]) CheckInvariants() error {
	if err := mp.wl.CheckInvariants(); err != nil {
		return fmt.Errorf("reactive: Map writer mutex: %w", err)
	}
	if err := mp.eng.Check(mapModeTable); err != nil {
		return fmt.Errorf("reactive: Map engine: %w", err)
	}
	live := 0
	for st := range mp.stores() {
		if st.lock.Held() {
			return fmt.Errorf("reactive: Map store lock held at quiescence")
		}
		live += len(st.m)
	}
	if err := mp.ek.Check(mp.eng.Mode() == mapEpoch); err != nil {
		return fmt.Errorf("reactive: Map %w", err)
	}
	for range values(mp.cells) {
		live++
	}
	if c := mp.count.Load(); int(c) != live {
		return fmt.Errorf("reactive: Map count gauge %d != live keys %d", c, live)
	}
	return nil
}
