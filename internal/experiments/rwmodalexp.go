package experiments

// Native RWMutex reader-registration modal experiment: a deterministic
// drive of the reactive/modal engine over the native RWMutex's 3-mode
// reader registration chain (centralized CAS word ↔ BRAVO-style per-P
// cells ↔ per-P epoch stamps). Like the fetch-op traces in modalexp.go, this exercises the
// pure protocol-selection state machine on a seeded synthetic
// contention trace, so its table is bit-deterministic and participates
// in the registry's serial==parallel contract.

import (
	"math/rand"

	"repro/internal/stats"
	"repro/reactive"
	"repro/reactive/modal"
)

// Native RWMutex reader-registration engine mode indices
// (reactive.RWReaderTable's contract: indices 0 and 1 are the public
// modes reactive.ModeCAS + i; index 2 is the public reactive.ModeEpoch).
const (
	rrCentral modal.Mode = 0
	rrSharded modal.Mode = 1
	rrEpoch   modal.Mode = 2
)

// rwModes is the reader-registration chain by engine index. (The
// fetch-op chain's third protocol is combining; this one's is epoch.)
var rwModes = []reactive.Mode{reactive.ModeCAS, reactive.ModeSharded, reactive.ModeEpoch}

// stepRWReaderEngine feeds the engine one synthetic detection event
// drawn from contention level p, emulating RWMutex's registration
// detection wiring: in centralized mode, p is the probability a reader
// loses the registration CAS to another reader (vote toward sharded
// slots); in sharded mode, 1-p is the probability a writer drain finds
// the lock already quiet (vote back toward the centralized word). The
// streak limits are the package defaults, as in the primitive.
func stepRWReaderEngine(e *modal.Engine, t *modal.Table, rng *rand.Rand, p float64) {
	const (
		failLimit  = reactive.DefaultSpinFailLimit
		emptyLimit = reactive.DefaultEmptyLimit
	)
	u := rng.Float64()
	if e.Mode() == rrCentral {
		if u < p {
			if e.Vote(t, rrCentral, rrSharded, failLimit) {
				e.TryCommit(t, rrCentral, rrSharded)
			}
		} else {
			e.Good(t, rrCentral, rrSharded)
		}
		return
	}
	if u >= p {
		if e.Vote(t, rrSharded, rrCentral, emptyLimit) {
			e.TryCommit(t, rrSharded, rrCentral)
		}
	} else {
		e.Good(t, rrSharded, rrCentral)
	}
}

// NativeRWReaderTrace tabulates the reader-registration engine's
// protocol selection across the shared contention trace, one row per
// phase. The end-of-trace shape mirrors the primitive's intent: the
// centralized word at idle, sharded slots under read saturation, and a
// return to the centralized word when reader contention subsides.
func NativeRWReaderTrace(sz Sizes) *stats.Table {
	return modalTrace(sz, new(modal.Engine), reactive.RWReaderTable(), rwModes[:2], stepRWReaderEngine)
}

// stepRWReaderEpochEngine feeds the engine one synthetic detection
// event drawn from contention level p, emulating the full 3-mode
// registration detection wiring (see RWMutex.drainReaders): in
// centralized mode, p is the probability a reader loses the
// registration CAS (vote toward sharded slots); in sharded mode, p is
// the probability a writer's drain finds readers still active (a busy
// drain votes toward epoch stamps and confirms sharded over the
// centralized word), and 1-p the probability it finds the lock quiet (a
// quiet drain votes toward the centralized word and confirms sharded
// over epoch); in epoch mode, 1-p is the probability a grace period
// completes quietly (vote back toward sharded slots), p that active
// stamps confirm the epoch protocol. Streak limits are the package
// defaults, as in the primitive: SpinFailLimit on up-edges, EmptyLimit
// on down-edges.
func stepRWReaderEpochEngine(e *modal.Engine, t *modal.Table, rng *rand.Rand, p float64) {
	const (
		failLimit  = reactive.DefaultSpinFailLimit
		emptyLimit = reactive.DefaultEmptyLimit
	)
	u := rng.Float64()
	switch e.Mode() {
	case rrCentral:
		if u < p {
			if e.Vote(t, rrCentral, rrSharded, failLimit) {
				e.TryCommit(t, rrCentral, rrSharded)
			}
		} else {
			e.Good(t, rrCentral, rrSharded)
		}
	case rrSharded:
		if u < p {
			e.Good(t, rrSharded, rrCentral)
			if e.Vote(t, rrSharded, rrEpoch, failLimit) {
				e.TryCommit(t, rrSharded, rrEpoch)
			}
		} else {
			e.Good(t, rrSharded, rrEpoch)
			if e.Vote(t, rrSharded, rrCentral, emptyLimit) {
				e.TryCommit(t, rrSharded, rrCentral)
			}
		}
	default: // rrEpoch
		if u >= p {
			if e.Vote(t, rrEpoch, rrSharded, emptyLimit) {
				e.TryCommit(t, rrEpoch, rrSharded)
			}
		} else {
			e.Good(t, rrEpoch, rrSharded)
		}
	}
}

// NativeRWReaderEpochTrace tabulates the full 3-mode
// reader-registration chain's protocol selection across the shared
// contention trace, one row per phase. Where NativeRWReaderTrace stops
// at the sharded slots, this trace drives the epoch edge too: read
// saturation that keeps writer drains busy pushes the engine through
// sharded slots into epoch stamps, and sustained quiet grace periods
// walk it back down the chain — the no-shortcut-edge contract means
// the engine always passes through sharded on the way between the
// centralized word and epoch stamps.
func NativeRWReaderEpochTrace(sz Sizes) *stats.Table {
	return modalTrace(sz, new(modal.Engine), reactive.RWReaderTable(), rwModes, stepRWReaderEpochEngine)
}
