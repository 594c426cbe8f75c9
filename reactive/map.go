package reactive

import (
	"context"
	"fmt"
	"hash/maphash"
	"iter"
	"maps"
	"math"
	"sync"
	"sync/atomic"

	"repro/reactive/internal/affinity"
	"repro/reactive/internal/chaos"
	"repro/reactive/internal/epoch"
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
// granule. The lock is a plain test-and-set word (not a Mutex): shard
// critical sections are single bounded map operations, so parking
// machinery would cost more than the longest possible wait.
type mapShard[K comparable, V any] struct {
	lock atomic.Uint32
	m    map[K]V
	_    [affinity.CacheLineSize - 16]byte
}

// cell is one key's value slot in the epoch mode. The published table
// and the off-line copy map a key to the same cell, so a write to a key
// that has a cell is one compare-and-swap of a fresh, never-mutated box
// (or of nil, a tombstone: the key is absent but keeps its cell), seen
// through both copies at once. A cell outlives its key's tables: the
// compaction that drops a tombstoned cell first marks it expunged (see
// Map.expunged), and a later insert of the key makes a new one.
type cell[V any] struct{ atomic.Pointer[V] }

// newExpunged allocates a Map's expunged sentinel: a *V no box can
// equal, never dereferenced. It points into a struct one byte longer
// than V, so it is a heap address of its own even for a zero-size V,
// where every new(V) returns one shared address.
func newExpunged[V any]() *V {
	return &new(struct {
		v V
		_ byte
	}).v
}

// present reports whether a value cell's load p is a value: nil is a
// tombstone and expunged a dropped cell, and both read as absent.
func present[V any](p, expunged *V) bool { return p != nil && p != expunged }

// values yields every key of a cell table whose cell holds a value,
// with that value.
func (mp *Map[K, V]) values(cells map[K]*cell[V]) iter.Seq2[K, V] {
	return func(yield func(K, V) bool) {
		for k, c := range cells {
			if p := c.Load(); present(p, mp.expunged) && !yield(k, *p) {
				return
			}
		}
	}
}

// lookup reads key's value out of a cell table.
func (mp *Map[K, V]) lookup(cells map[K]*cell[V], key K) (v V, ok bool) {
	if c, had := cells[key]; had {
		if p := c.Load(); present(p, mp.expunged) {
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
//   - ModeEpoch — a read-mostly copy-on-write index in the userspace-
//     RCU style: Get enters the grace-period kernel (a deposit in its
//     per-P cell), finds the key's value cell in an atomically
//     published table and loads it, writing nothing outside its own
//     cache-line-padded cell — contended reads generate zero
//     shared-cacheline coherence traffic. Both copies of the table
//     share one value cell per key, and a Delete leaves its key's cell
//     in place holding nil, so a Put or Delete of a key that has a cell
//     finds it as a Get does and compare-and-swaps it: no lock, no
//     table published, no grace period. Only an insert of a key with no
//     cell takes the writer lock, applies the change to the off-line
//     copy, publishes that copy as the new version, and runs a grace
//     period (the same reactive/internal/epoch kernel RWMutex's
//     cell-based modes run on) proving the retired copy reader-free
//     before the change is applied to it in place, for the next round.
//     Once tombstoned cells outnumber live keys, that insert also drops
//     them from both copies.
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
	cfg config

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
	// array (next power of two ≥ GOMAXPROCS).
	seed       maphash.Seed
	shards     []mapShard[K, V]
	shardsOnce sync.Once
	shardsUp   atomic.Bool

	// Epoch-mode state: the published table (cur), the off-line copy
	// the next insert mutates and publishes (spare, guarded by wl;
	// between writers it maps every key to the same cell as cur), the
	// value a compaction CASes into a tombstoned cell before dropping it
	// from both copies (expunged, from newExpunged: set once, before the
	// epoch mode is first published, and never changed), how many tables
	// have been published (version), and the grace-period kernel readers
	// and cell writers enter and inserting writers claim and wait on
	// (ek).
	cur      atomic.Pointer[map[K]*cell[V]]
	expunged *V
	spare    *map[K]*cell[V]
	version  atomic.Uint64
	ek       epoch.Kernel
}

// NewMap builds a Map with the given options. NewMap() is equivalent to
// a zero-value Map; WithInitialMode accepts ModeLocked, ModeSharded,
// and ModeEpoch.
func NewMap[K comparable, V any](opts ...Option) *Map[K, V] {
	mp := &Map[K, V]{}
	mp.cfg.apply(opts)
	mp.eng.SetPolicy(mp.cfg.pol)
	mp.wl.cfg = mp.cfg.tunables()
	if mp.cfg.initModeSet && !walkTo(&mp.eng, mapModes, mp.cfg.initMode, mp.switchMap) {
		panic("reactive: Map supports initial modes ModeLocked, ModeSharded, and ModeEpoch")
	}
	return mp
}

// shardsInit lazily builds the shard array and the hash seed, exactly
// once, before the sharded mode is ever published.
func (mp *Map[K, V]) shardsInit() {
	mp.shardsOnce.Do(func() {
		mp.seed = maphash.MakeSeed()
		mp.shards = make([]mapShard[K, V], affinity.Shards())
		mp.shardsUp.Store(true)
	})
}

// shardIndex places a key: hash, masked into the power-of-two array.
func (mp *Map[K, V]) shardIndex(key K) int {
	return int(maphash.Comparable(mp.seed, key)) & (len(mp.shards) - 1)
}

// lockW acquires the writer lock, reporting whether the acquisition
// contended (the ModeLocked detection signal). A nil done means the
// uncancellable path.
func (mp *Map[K, V]) lockW(ctx context.Context, done <-chan struct{}) (contended bool, err error) {
	if mp.wl.TryLock() {
		return false, nil
	}
	if done == nil {
		mp.wl.Lock()
		return true, nil
	}
	if err := mp.wl.LockCtx(ctx); err != nil {
		return true, err
	}
	return true, nil
}

// lockShard acquires one shard's spin word, reporting whether the
// acquisition contended. Shard critical sections are single bounded map
// operations, so the loop spins with randomized backoff and never
// parks; a cancellable caller's done aborts between pauses.
func (mp *Map[K, V]) lockShard(l *atomic.Uint32, ctx context.Context, done <-chan struct{}) (contended bool, err error) {
	if l.CompareAndSwap(0, 1) {
		return false, nil
	}
	var bo modal.Backoff
	bo.Max = backoffCeiling
	for {
		if done != nil {
			select {
			case <-done:
				return true, ctx.Err()
			default:
			}
		}
		if l.Load() == 0 && l.CompareAndSwap(0, 1) {
			return true, nil
		}
		bo.Pause()
	}
}

func (mp *Map[K, V]) unlockShard(l *atomic.Uint32) { l.Store(0) }

// lockAllShards acquires every shard lock in index order — one half of
// the transition consensus: with wl and all shard locks held, no
// operation is inside any protocol (locked ops hold wl, sharded ops
// hold their shard, and both revalidate the mode after acquiring).
func (mp *Map[K, V]) lockAllShards() {
	for i := range mp.shards {
		mp.lockShard(&mp.shards[i].lock, nil, nil)
	}
}

func (mp *Map[K, V]) unlockAllShards() {
	for i := range mp.shards {
		mp.unlockShard(&mp.shards[i].lock)
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
	lim := mp.cfg.limits()
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
// sharded edge is not handled here: it commits inside graceSweep, under
// the writer's claim, where reader exclusion is already proved.
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
		pub := make(map[K]*cell[V], mp.count.Load())
		for k, v := range mp.gather() {
			c := new(cell[V])
			c.Store(&v)
			pub[k] = c
		}
		spare := maps.Clone(pub)
		if mp.expunged == nil {
			mp.expunged = newExpunged[V]()
		}
		mp.version.Add(1)
		mp.cur.Store(&pub)
		mp.spare = &spare
		// Select the kernel before the commit publishes the mode, so the
		// first Get that dispatches to the epoch path validates
		// successfully. No claim: the spare has never been published, so
		// its in-place mutation needs no grace period.
		mp.ek.Select(true, false)
		mp.eng.TryCommit(mapModeTable, mapSharded, mapEpoch)
		mp.unlockAllShards()
	}
}

// Get reports the value stored under key. In ModeEpoch the fast path
// performs no allocation and writes nothing outside its own per-P
// cache-line-padded cell.
func (mp *Map[K, V]) Get(key K) (V, bool) {
	v, ok, _ := mp.get(nil, nil, key)
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
	return mp.get(ctx, ctx.Done(), key)
}

func (mp *Map[K, V]) get(ctx context.Context, done <-chan struct{}, key K) (V, bool, error) {
	var zero V
	for {
		switch mp.eng.Mode() {
		case mapLocked:
			contended, err := mp.lockW(ctx, done)
			if err != nil {
				return zero, false, err
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
			return v, ok, nil
		case mapSharded:
			sh := &mp.shards[mp.shardIndex(key)]
			contended, err := mp.lockShard(&sh.lock, ctx, done)
			if err != nil {
				return zero, false, err
			}
			if mp.eng.Mode() != mapSharded {
				mp.unlockShard(&sh.lock)
				continue
			}
			v, ok := sh.m[key]
			mp.unlockShard(&sh.lock)
			mp.note(mapSharded, contended, true)
			return v, ok, nil
		default: // mapEpoch
			// One epoch-mode read: enter the kernel, find the key's cell
			// in the published table and load it, exit. Between a
			// successful enter and its exit the kernel's exclusion
			// argument (DESIGN.md §8) holds the table still: a writer
			// retires a table only by publishing its successor and then
			// running a grace period, which this reader's deposit blocks,
			// so the table cannot be mutated in place while this reader is
			// inside it. The cell itself may take a write meanwhile; its
			// load is the read's linearization point.
			if c, _ := mp.ek.Enter(); c != nil {
				v, ok := mp.lookup(*mp.cur.Load(), key)
				mp.ek.Exit(c)
				return v, ok, nil
			}
			// Refused: a writer's grace claim is in place (or the mode
			// just moved). Read authoritatively under the writer lock, so
			// writers cannot starve behind a read storm.
			if _, err := mp.lockW(ctx, done); err != nil {
				return zero, false, err
			}
			if mp.eng.Mode() != mapEpoch {
				mp.wl.Unlock()
				continue
			}
			v, ok := mp.lookup(*mp.cur.Load(), key)
			mp.wl.Unlock()
			return v, ok, nil
		}
	}
}

// Put stores val under key. In ModeEpoch, a Put of a key that has a
// value cell — present, or deleted since the table last dropped its
// tombstones — is one compare-and-swap of a freshly allocated copy of
// val (as sync.Map.Store allocates) inside an epoch read section, with
// no lock taken, no table republished and no grace period; only an
// insert of a key with no cell takes the writer lock, republishes the
// table and waits for readers.
func (mp *Map[K, V]) Put(key K, val V) {
	mp.put(nil, nil, key, val, false)
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
	return mp.put(ctx, ctx.Done(), key, val, false)
}

// Delete removes the value stored under key, if any. In ModeEpoch it
// never takes a lock: it leaves the key's value cell in place, holding
// nil.
func (mp *Map[K, V]) Delete(key K) {
	mp.put(nil, nil, key, *new(V), true)
}

func (mp *Map[K, V]) put(ctx context.Context, done <-chan struct{}, key K, val V, del bool) error {
	for {
		switch mp.eng.Mode() {
		case mapLocked:
			contended, err := mp.lockW(ctx, done)
			if err != nil {
				return err
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
			return nil
		case mapSharded:
			sh := &mp.shards[mp.shardIndex(key)]
			contended, err := mp.lockShard(&sh.lock, ctx, done)
			if err != nil {
				return err
			}
			if mp.eng.Mode() != mapSharded {
				mp.unlockShard(&sh.lock)
				continue
			}
			if d := mutate(&sh.m, key, val, del); d != 0 {
				mp.count.Add(d)
			}
			mp.unlockShard(&sh.lock)
			mp.note(mapSharded, contended, false)
			return nil
		default: // mapEpoch
			// A Delete's box is nil, the tombstone; a Put's is the epoch
			// write's one allocation, made on this branch only.
			var box *V
			if !del {
				box = new(V)
				*box = val
			}
			if mp.storeEpoch(key, box) {
				return nil
			}
			if _, err := mp.lockW(ctx, done); err != nil {
				return err
			}
			if mp.eng.Mode() != mapEpoch {
				mp.wl.Unlock()
				continue
			}
			mp.putEpoch(key, box)
			mp.wl.Unlock()
			return nil
		}
	}
}

// storeEpoch is the lock-free epoch write: inside an epoch read
// section, as Get does, it finds key's value cell in the published
// table and stores box into it (storeCell). It reports false, having
// changed nothing, when the write needs the writer lock: a refused
// Enter (a grace claim is in place, or the mode moved), a Put of a key
// with no cell, or a Put into an expunged cell. A Delete of a key with
// no cell is done: the key is absent in the table just loaded.
//
// The open section is what makes the store safe without wl: every
// table change that could drop the cell or move the key out of the
// epoch protocol (a compaction, a demotion to ModeSharded) completes
// only after a grace period, which this section blocks.
func (mp *Map[K, V]) storeEpoch(key K, box *V) bool {
	rc, _ := mp.ek.Enter()
	if rc == nil {
		return false
	}
	done := box == nil
	if c, ok := (*mp.cur.Load())[key]; ok {
		done = mp.storeCell(c, box)
	}
	mp.ek.Exit(rc)
	return done
}

// storeCell compare-and-swaps box (nil for a Delete) into a value cell,
// moving the live-key gauge by what the swap replaced: a value into a
// tombstone is an insert, nil over a value a delete. A Delete of a
// tombstone changes nothing. An expunged cell has left, or is leaving,
// both tables: the key is absent, which is a Delete's whole effect, and
// a Put reports false to insert under wl. A compaction's expunge CAS
// (nil → expunged) and a Put's CAS out of the nil it loaded cannot both
// succeed, so no write lands in a dropped cell.
func (mp *Map[K, V]) storeCell(c *cell[V], box *V) bool {
	for {
		old := c.Load()
		if old == mp.expunged {
			return box == nil
		}
		if old == nil && box == nil {
			return true
		}
		chaos.Point("map.cell.store")
		if c.CompareAndSwap(old, box) {
			switch {
			case old == nil:
				mp.count.Add(1)
			case box == nil:
				mp.count.Add(-1)
			}
			return true
		}
	}
}

// putEpoch applies one epoch-mode write under wl: the fallback of a
// write storeEpoch could not finish. Between writers no cell of either
// copy is expunged (a compaction drops them from both before it
// releases wl), so a key with a cell takes storeCell, which cannot fail
// here. A Put of a key with no cell is an insert and takes the
// republish round trip: add a new cell to the off-line copy, publish
// that copy as the new table version, run a grace period proving the
// retired copy reader-free, then add the same cell to the retired copy
// so both copies map every key to the same cell again — the invariant
// CheckInvariants verifies.
//
// Compaction rides the round trip. When tombstones outnumber live keys,
// each tombstoned cell is CASed from nil to expunged and dropped from
// the off-line copy before it is published, and dropped from the
// retired copy after the grace period, with the insert's own change. A
// cell revived by a lock-free Put before its expunge CAS stays. No
// grace period is added: readers and writers still inside the retired
// table read an expunged cell as absent, and the grace period that
// already runs waits them out before the retired copy is touched.
func (mp *Map[K, V]) putEpoch(key K, box *V) {
	spare := mp.spare
	if c, ok := (*spare)[key]; ok {
		mp.storeCell(c, box)
		return
	}
	if box == nil {
		return // a Delete of an absent key
	}
	c := new(cell[V])
	c.Store(box)
	cells, keys := int64(len(*spare)), mp.count.Load()
	compact := cells-keys > keys
	if compact {
		for k, tc := range *spare {
			if tc.CompareAndSwap(nil, mp.expunged) {
				delete(*spare, k)
			}
		}
	}
	// In-place mutation of the off-line copy is safe because the grace
	// period that retired it proved it reader-free, and no reader has
	// been able to reach it since (cur no longer points at it).
	(*spare)[key] = c
	mp.count.Add(1)

	// Publish: one atomic store installs the new version; readers that
	// loaded the old pointer are still inside it — the window the
	// map.table.publish fault point opens, closed by the grace period.
	retired := mp.cur.Load()
	mp.version.Add(1)
	mp.cur.Store(spare)
	mp.spare = retired
	chaos.Point("map.table.publish")

	if demoted := mp.graceSweep(); !demoted {
		// Bring the retired copy up to date for the next round.
		(*retired)[key] = c
		if compact {
			for k, tc := range *retired {
				if tc.Load() == mp.expunged {
					delete(*retired, k)
				}
			}
		}
	}
}

// graceSweep runs one grace period, under wl: claim the kernel, wait
// (Kernel.Wait, which also counts the grace period) until every reader
// that might hold the retired table has exited, run the epoch protocol's
// scale-down detection, and release the claim. The wait is uncancellable
// — epoch read sections run no user code, so it is bounded. Reports
// whether detection demoted the map out of the epoch mode; in that case
// the commit ran here, under the claim, where reader exclusion is
// already proved.
func (mp *Map[K, V]) graceSweep() (demoted bool) {
	mp.ek.Claim()
	// Readers are internal enter/exit pairs, so unlike RWMutex a
	// negative sum would be a package bug, not caller misuse;
	// CheckInvariants verifies zero at quiescence.
	quiet, _ := mp.ek.Wait(mp.cfg.pollBudget(), nil, func() bool {
		chaos.Point("map.grace.sweep")
		return mp.ek.Sum() == 0
	})
	if _, fire := mp.eng.Observe(mapModeTable, mapEpoch, signalOf(!quiet), mp.cfg.limits()); fire {
		// A streak of quiet grace periods: the published table went
		// unread across whole writer rounds — the write-dominated regime
		// where the copy-on-write machinery is pure overhead.
		mp.shardsInit()
		mp.lockAllShards()
		mp.scatter(mp.values(*mp.cur.Load()))
		mp.ek.Select(false, true)
		mp.eng.TryCommit(mapModeTable, mapEpoch, mapSharded)
		mp.unlockAllShards()
		mp.spare = nil
		demoted = true
	}
	mp.ek.Release()
	return demoted
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
				mp.lockShard(&sh.lock, nil, nil)
				if mp.eng.Mode() != mapSharded {
					mp.unlockShard(&sh.lock)
					ok = false
					break
				}
				maps.Copy(out, sh.m)
				mp.unlockShard(&sh.lock)
			}
			if ok {
				return maps.All(out)
			}
		default: // mapEpoch
			if cells, valid := mp.snapshotEpoch(); valid {
				return mp.values(cells)
			}
			mp.wl.Lock()
			if mp.eng.Mode() != mapEpoch {
				mp.wl.Unlock()
				continue
			}
			cells := maps.Clone(*mp.cur.Load())
			mp.wl.Unlock()
			return mp.values(cells)
		}
	}
}

// snapshotEpoch copies the published cell table as an epoch reader — the
// copy (bounded, no user code) is the only work an epoch-mode grace
// period ever waits on besides lookups and cell writes. The values are loaded from the
// copy's cells later, outside the read section: cells are never freed
// and their boxes never change, so the loads need no section.
func (mp *Map[K, V]) snapshotEpoch() (map[K]*cell[V], bool) {
	c, _ := mp.ek.Enter()
	if c == nil {
		return nil, false
	}
	cells := maps.Clone(*mp.cur.Load())
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
	// Version is the published-table version: how many epoch-mode
	// tables have ever been installed. Monotonic.
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
// cells summing to zero), no grace waiter is parked, the off-line copy
// maps every key to the same value cell as the published table, no
// cell of either is expunged (a tombstone, nil, is legal), and the
// live-key gauge equals the key count of the current mode's
// authoritative store — in ModeEpoch, the cells holding a value. See
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
			if l := mp.shards[i].lock.Load(); l != 0 {
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
		pub := *mp.cur.Load()
		if len(*mp.spare) != len(pub) {
			return fmt.Errorf("reactive: Map off-line copy holds %d cells, published table holds %d", len(*mp.spare), len(pub))
		}
		for k, c := range pub {
			if (*mp.spare)[k] != c {
				return fmt.Errorf("reactive: Map off-line copy does not share key %v's value cell with the published table", k)
			}
			switch p := c.Load(); {
			case p == mp.expunged:
				return fmt.Errorf("reactive: Map key %v's value cell is expunged but still in the tables", k)
			case p != nil:
				live++
			}
		}
	}
	if c := mp.count.Load(); int(c) != live {
		return fmt.Errorf("reactive: Map count gauge %d != live keys %d", c, live)
	}
	return nil
}
