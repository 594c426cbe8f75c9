// Package affinity is the per-P shard-index substrate shared by the
// sharded protocols of package reactive (FetchOp/Counter cells and the
// reactive/internal/epoch kernel's reader cells, which RWMutex's sharded
// and epoch registration and Map's epoch mode deposit in).
//
// A sharded protocol scales only if concurrently-updating processors
// land on different shards. The Go runtime does not expose a processor
// id, but it does expose — to the standard library — the pin/unpin pair
// sync.Pool's per-P caches are built on: runtime.procPin disables
// preemption and returns the current P's index, runtime.procUnpin
// re-enables it. Pin/Unpin link against exactly that pair (the
// sync.runtime_procPin linkname the runtime pushes for package sync),
// so between Pin and Unpin the shard index is the *exact* current
// processor: two goroutines can collide on a shard only by genuinely
// sharing a P. The previous scheme — a sync.Pool of cached stripe
// indices — paid a pool Get/Put plus an interface assertion per
// operation and only approximated affinity through the pool's caches.
//
// Because Pin disables preemption, the code between Pin and Unpin must
// be short and must not block, park, or call arbitrary user code
// (blocking while pinned is a runtime fatal error). Callers that need
// to run user-supplied operations take the index while pinned, Unpin,
// and then operate on the chosen shard unpinned: the index degrades
// from "exact" to "exact at selection time", and the shard's own
// atomics absorb the rare migration race.
//
// The build tags purego and reactive_noprocpin select a portable
// fallback with the same API that degrades to the old stripe-hash
// scheme (a sync.Pool of cached indices), so the package builds on
// toolchains where the linkname is unavailable. Exact reports which
// implementation is in effect.
package affinity

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// CacheLineSize is the coherence-granule separation the padded per-P
// structures built on this package assume. 128 bytes covers CPUs with
// 128-byte coherence granules (Apple silicon's 128-byte lines, POWER's
// and some ARM server cores' line pairs) as well as the common 64-byte
// case with a spatial-prefetcher guard line, so adjacent shards never
// false-share.
const CacheLineSize = 128

// Cell is one per-P shard: a word padded out to a full coherence granule
// so adjacent cells never false-share. Every per-P structure in package
// reactive — FetchOp/Counter cells, the epoch kernel's reader cells —
// is this one type, so the layout rule lives in one place. Where N holds
// registration deltas (the kernel's cells) a reader may deposit its +1
// on one cell and its -1 on another after migrating, so only the sum
// across cells is meaningful.
type Cell struct {
	N atomic.Int64
	_ [CacheLineSize - 8]byte
}

// Cells is a lazily built per-P cell array with a fill value and a sum
// — the one lazy array behind FetchOp/Counter's operand cells and the
// epoch kernel's reader cells. The zero value is an unbuilt array; a Cells must not be
// copied after first use.
type Cells struct {
	cells []Cell
	once  sync.Once
	up    atomic.Bool
}

// Build returns the array, creating it on first use, sized to Shards(),
// every cell holding fill: zero for registration deltas (the only cells
// Sum is meaningful for), FetchOp's identity element for its operand
// cells. An owner passes the same fill every time. Owners build it before
// publishing the mode whose fast path indexes it, so that path may use
// Built without a nil check.
func (a *Cells) Build(fill int64) []Cell {
	a.once.Do(func() {
		a.cells = make([]Cell, Shards())
		if fill != 0 {
			for i := range a.cells {
				a.cells[i].N.Store(fill)
			}
		}
		a.up.Store(true)
	})
	return a.cells
}

// Built returns the array if it has ever been built, else nil.
func (a *Cells) Built() []Cell {
	if !a.up.Load() {
		return nil
	}
	return a.cells
}

// Sum adds up the cells; zero until the array is built. A sweep is not a
// snapshot: the owning protocol's ordering argument (DESIGN.md §8)
// is what makes a zero read meaningful.
func (a *Cells) Sum() int64 {
	var sum int64
	cells := a.Built()
	for i := range cells {
		sum += cells[i].N.Load()
	}
	return sum
}

// Shards returns the shard-array size the current process warrants: the
// next power of two ≥ GOMAXPROCS(0), and at least 2. Masking a Pin
// index by (Shards()-1) is collision-free while GOMAXPROCS does not
// grow after the array is built; if it does grow, distinct Ps may wrap
// onto shared shards — correct, merely less parallel.
func Shards() int {
	n := 2
	for n < runtime.GOMAXPROCS(0) {
		n *= 2
	}
	return n
}
