package experiments

// Native Map modal experiment: a deterministic drive of the
// reactive/modal engine over the adaptive hash map's 3-mode chain (one
// locked table ↔ per-shard locks ↔ published immutable table). Like
// the fetch-op and RWMutex traces, this exercises the pure
// protocol-selection state machine on a seeded synthetic contention
// trace, so its table is bit-deterministic and participates in the
// registry's serial==parallel contract.

import (
	"math/rand"

	"repro/internal/stats"
	"repro/reactive"
	"repro/reactive/modal"
)

// Native Map engine mode indices (reactive.MapTable's contract: 0 =
// ModeLocked, 1 = ModeSharded, 2 = ModeEpoch).
const (
	amLocked  modal.Mode = 0
	amSharded modal.Mode = 1
	amEpoch   modal.Mode = 2
)

// mapModes is the Map chain by engine index.
var mapModes = []reactive.Mode{reactive.ModeLocked, reactive.ModeSharded, reactive.ModeEpoch}

// amReadFrac is the trace's read mix: the fraction of contended sharded
// operations that are lookups. Only contended *reads* vote the sharded
// store up to the epoch protocol (Map.noteSharded's wiring — promoting
// a write-heavy map would tax every write with a grace period), so the
// trace models the read-mostly workload the epoch mode exists for.
const amReadFrac = 0.9

// stepMapEngine feeds the engine one synthetic detection event drawn
// from contention level p, emulating Map's detection wiring: in the
// locked mode, p is the probability an operation found the single
// writer lock held (vote toward shards); in the sharded mode an
// uncontended operation confirms the up-edge and votes down toward the
// locked table, while a contended operation breaks the down-streak and
// — when it is a read (probability amReadFrac) — votes up toward the
// epoch protocol; in the epoch mode, 1-p is the probability a writer's
// grace period completes with no reader stamped (vote back toward
// shards), p that active stamps confirm the protocol. Streak limits
// are the package defaults, as in the primitive: SpinFailLimit on
// up-edges, EmptyLimit on down-edges.
func stepMapEngine(e *modal.Engine, t *modal.Table, rng *rand.Rand, p float64) {
	const (
		failLimit  = reactive.DefaultSpinFailLimit
		emptyLimit = reactive.DefaultEmptyLimit
	)
	u := rng.Float64()
	switch e.Mode() {
	case amLocked:
		if u < p {
			if e.Vote(t, amLocked, amSharded, failLimit) {
				e.TryCommit(t, amLocked, amSharded)
			}
		} else {
			e.Good(t, amLocked, amSharded)
		}
	case amSharded:
		if u >= p {
			e.Good(t, amSharded, amEpoch)
			if e.Vote(t, amSharded, amLocked, emptyLimit) {
				e.TryCommit(t, amSharded, amLocked)
			}
			return
		}
		e.Good(t, amSharded, amLocked)
		if rng.Float64() < amReadFrac {
			if e.Vote(t, amSharded, amEpoch, failLimit) {
				e.TryCommit(t, amSharded, amEpoch)
			}
		} else {
			e.Good(t, amSharded, amEpoch)
		}
	default: // amEpoch
		if u >= p {
			if e.Vote(t, amEpoch, amSharded, emptyLimit) {
				e.TryCommit(t, amEpoch, amSharded)
			}
		} else {
			e.Good(t, amEpoch, amSharded)
		}
	}
}

// NativeMapTrace tabulates the adaptive map's 3-mode chain across the
// shared contention trace, one row per phase: the idle phases hold the
// single locked table, the ramp promotes to shards, read saturation
// pushes through shards into the published-table epoch protocol, and
// the cooldown/quiet phases walk the chain back down — the
// no-shortcut-edge contract means the engine always passes through
// sharded between the locked table and the epoch protocol, in both
// directions.
func NativeMapTrace(sz Sizes) *stats.Table {
	return modalTrace(sz, new(modal.Engine), reactive.MapTable(), mapModes, stepMapEngine)
}
