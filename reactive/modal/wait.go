package modal

import (
	"runtime"
	"sync/atomic"
)

// DefaultBackoffMax is the cap on Backoff's mean pause length, in
// scheduler yields.
const DefaultBackoffMax = 64

// backoffSeq seeds each Backoff differently so independent spinners
// decorrelate even when they start in the same scheduler quantum.
var backoffSeq atomic.Uint32

// Backoff is randomized exponential backoff for spin loops: each Pause
// yields the processor a uniformly random number of times drawn from a
// mean that doubles up to Max. Randomization breaks the lock-step
// convoys that plain doubling produces when many spinners observe the
// same event. The zero value is ready to use (mean 1, cap
// DefaultBackoffMax); a Backoff is single-goroutine state and is
// typically a local variable of one waiting loop.
type Backoff struct {
	// Max caps the mean pause length in yields; 0 means
	// DefaultBackoffMax.
	Max uint32

	mean uint32
	seed uint32
}

// Pause yields between 1 and mean times, then doubles the mean toward
// the cap.
func (b *Backoff) Pause() {
	if b.mean == 0 {
		b.mean = 1
	}
	if b.seed == 0 {
		// Mix the global sequence so two zero-value Backoffs created
		// back-to-back still diverge; the |1 keeps the xorshift state
		// nonzero forever.
		b.seed = (backoffSeq.Add(1) * 2654435761) | 1
	}
	b.seed ^= b.seed << 13
	b.seed ^= b.seed >> 17
	b.seed ^= b.seed << 5
	spins := 1 + int(b.seed%b.mean)
	for i := 0; i < spins; i++ {
		runtime.Gosched()
	}
	max := b.Max
	if max == 0 {
		max = DefaultBackoffMax
	}
	if b.mean < max {
		b.mean *= 2
		if b.mean > max {
			b.mean = max
		}
	}
}
