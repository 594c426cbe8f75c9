package waitq

import (
	"runtime"
	"sync/atomic"
)

// BackoffMax is the cap on Backoff's mean pause length, in scheduler
// yields.
const BackoffMax = 64

// backoffSeq seeds each Backoff differently so independent spinners
// decorrelate even when they start in the same scheduler quantum.
var backoffSeq atomic.Uint32

// Backoff is randomized exponential backoff for spin loops: each Pause
// yields the processor a uniformly random number of times drawn from a
// mean that doubles up to BackoffMax. Randomization breaks the lock-step
// convoys that plain doubling produces when many spinners observe the
// same event. The zero value is ready to use (mean 1); a Backoff is
// single-goroutine state and is typically a local variable of one
// waiting loop.
type Backoff struct {
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
	if b.mean < BackoffMax { // a power of two, so doubling lands on it
		b.mean *= 2
	}
}

// A Lock is the short-term spin lock of package reactive: one
// test-and-test-and-set word whose waiters back off randomly up to
// BackoffMax, as the spin-mode Mutex's and the contended CAS-mode
// fetch-and-op's do, and never park
// (FetchOp's sweep window parks its waiters on a Queue of its own, over
// TryLock). The zero value is unlocked. A Lock must not be copied after
// first use.
type Lock struct {
	word atomic.Uint32
}

// TryLock takes the lock if it is free, without waiting.
func (l *Lock) TryLock() bool { return l.word.CompareAndSwap(0, 1) }

// Unlock releases the lock, held or not.
func (l *Lock) Unlock() { l.word.Store(0) }

// Held reports whether the lock is taken.
func (l *Lock) Held() bool { return l.word.Load() != 0 }

// Lock takes the lock, spinning while it is held; contended reports that
// the first attempt failed. After that, a closed done ends the wait
// between attempts with aborted set and the lock not taken; a nil done
// never aborts. The first attempt inlines, the spin stays out of line.
func (l *Lock) Lock(done <-chan struct{}) (contended, aborted bool) {
	if l.word.CompareAndSwap(0, 1) {
		return false, false
	}
	return true, l.spin(done)
}

// spin is Lock's contended loop: check done, read-poll the word before
// the compare-and-swap, back off.
func (l *Lock) spin(done <-chan struct{}) (aborted bool) {
	var bo Backoff
	for {
		if done != nil {
			select {
			case <-done:
				return true
			default:
			}
		}
		if l.word.Load() == 0 && l.word.CompareAndSwap(0, 1) {
			return false
		}
		bo.Pause()
	}
}
