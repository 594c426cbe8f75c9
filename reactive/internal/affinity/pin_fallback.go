//go:build purego || reactive_noprocpin

package affinity

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"
)

// Exact reports that Pin returns only a stripe-hash approximation of
// the current P (the portable fallback, not procPin).
const Exact = false

// stripe is a cached shard-index assignment. Stripes live in a
// sync.Pool, whose per-P caches give the index approximate processor
// affinity: a goroutine usually gets back a stripe last used on its
// current P, so shards behave like per-P slots in the common case.
type stripe struct{ idx uint32 }

var stripeSeq atomic.Uint32

var stripePool = sync.Pool{New: func() any {
	return &stripe{idx: stripeSeq.Add(1)}
}}

// Pin returns a shard index with approximate processor affinity. The
// fallback does not disable preemption; the Pin/Unpin contract is the
// same as the exact implementation's, only the collision guarantee is
// weaker (two Ps may transiently share an index).
func Pin() int {
	s := stripePool.Get().(*stripe)
	idx := int(s.idx)
	stripePool.Put(s)
	return idx
}

// Unpin is a no-op in the fallback implementation.
func Unpin() {}

// Rand returns a pseudo-random value; the fallback draws from
// math/rand/v2's global source.
func Rand() uint32 { return rand.Uint32() }
