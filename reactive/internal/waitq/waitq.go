// Package waitq holds both ways package reactive waits: the short spin
// of Lock, a test-and-test-and-set word with randomized Backoff, and the
// two-phase park of Queue, the waiter-queue engine behind every wait
// that parks. Queue.Wait polls (phase one) and then parks (phase two);
// it is the one parking mechanism that replaced
// the three ad-hoc ones the primitives used to carry (Mutex's capacity-1
// channel semaphore, RWMutex's reader condition variable, and RWMutex's
// writer-drain channel). Every caller passes its configured polling
// budget, so phase one, too, is Wait's alone.
//
// The engine is an intrusive FIFO of per-goroutine wait nodes (waiter)
// supporting handoff-or-abandon: a waiter that stops waiting — because its
// context was cancelled, or because it acquired the resource by polling
// while still enqueued — leaves through abandon, which either unlinks the
// node (the wait was never granted) or, when a grant had already been
// delivered, consumes the grant token and passes the wakeup on to the next
// waiter. That pass-on rule is what makes cancellation safe against the
// classic lost-wakeup race (the x/sync/semaphore problem): a wakeup handed
// to a leaving waiter is never dropped while someone else still waits.
//
// Grants are wakeup hints, not ownership transfers: the primitives built on
// this package are barging (acquisition is always a CAS on the caller's own
// state word), so a spurious or stale grant costs a re-check, never
// correctness. The invariant a waiter must maintain is announce-then-check:
// push the node, then re-test the awaited condition (or attempt the
// acquisition) before blocking on its ready channel, so a peer that
// changed the condition before observing the queue cannot strand the
// waiter. Queue.Wait is the one place that choreography is written out,
// so the node and its lifecycle are unexported; the surface is Wait, Grant,
// GrantAll, Len and Check.
//
// All queue state is guarded by a Lock; the critical sections are a
// handful of pointer moves and one non-blocking channel send. Nodes are
// pooled (get/put), so steady-state parking allocates nothing.
package waitq

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/reactive/internal/chaos"
)

// waiter states, guarded by the owning queue's lock.
const (
	stateIdle    uint32 = iota // not linked; no grant pending
	stateQueued                // linked in a queue
	stateGranted               // unlinked by a grant; token in ready
)

// A waiter is one goroutine's parked wait: an intrusive queue node plus the
// capacity-1 channel its grant token is delivered on. Waiters come from the
// package pool (get/put); a waiter is owned by exactly one waiting
// goroutine at a time and may be re-pushed (on the same or another Queue)
// once its previous wait has fully ended — token consumed, or abandon
// returned.
type waiter struct {
	next, prev *waiter
	state      uint32
	// ready delivers the grant token. Capacity 1, and a token is sent only
	// by the grant that unlinks the node, so the send — performed under
	// the queue lock — can never block. Receiving consumes the token; a
	// waiter that instead stops waiting leaves via abandon, so a token it
	// was already granted is passed on.
	ready chan struct{}
}

var pool = sync.Pool{New: func() any { return &waiter{ready: make(chan struct{}, 1)} }}

// get returns a ready-to-push waiter from the package pool.
func get() *waiter { return pool.Get().(*waiter) }

// put returns w to the pool. The caller must have fully ended w's wait:
// a node with an unconsumed grant token would wake its next user spuriously
// at best and corrupt the FIFO at worst, so put panics on one.
func put(w *waiter) {
	if w.state == stateQueued || len(w.ready) != 0 {
		panic("waitq: put of a waiter whose wait has not ended")
	}
	w.state = stateIdle
	pool.Put(w)
}

// A Queue is a FIFO of parked waiters. The zero value is an empty queue
// ready to use. A Queue must not be copied after first use.
type Queue struct {
	lock       Lock // guards the list and waiter states
	head, tail *waiter
	// n mirrors the list length so Len — the "any waiters?" fast check on
	// every unlock path — is one atomic load, never a lock acquisition.
	n atomic.Int32
}

// Len returns the number of queued waiters (parked or committing to park).
func (q *Queue) Len() int { return int(q.n.Load()) }

// push appends w to the queue. The caller must then re-check the condition
// it is about to wait for (announce-then-check) before blocking on
// w.ready, and must eventually end the wait by consuming the token or by
// calling abandon.
func (q *Queue) push(w *waiter) {
	chaos.Point("waitq.push.enter")
	q.lock.Lock(nil)
	// stateGranted with an empty channel is a consumed grant — a normal
	// re-push after a wakeup; only a still-queued node or an unconsumed
	// token marks a wait that has not ended.
	if w.state == stateQueued || len(w.ready) != 0 {
		q.lock.Unlock()
		panic("waitq: push of a waiter whose previous wait has not ended")
	}
	w.state = stateQueued
	w.prev = q.tail
	w.next = nil
	if q.tail == nil {
		q.head = w
	} else {
		q.tail.next = w
	}
	q.tail = w
	q.n.Add(1)
	q.lock.Unlock()
}

// unlink removes w from the list. Callers hold the lock and have checked
// w.state == stateQueued.
func (q *Queue) unlink(w *waiter) {
	if w.prev == nil {
		q.head = w.next
	} else {
		w.prev.next = w.next
	}
	if w.next == nil {
		q.tail = w.prev
	} else {
		w.next.prev = w.prev
	}
	w.next, w.prev = nil, nil
	q.n.Add(-1)
}

// Grant wakes the oldest waiter: unlinks it and delivers its token, both
// under the queue lock, so by the time any later abandon observes the
// granted state the token is already in the channel. It reports whether a
// waiter was woken; an empty queue is a no-op (wakeups are hints — a
// waiter yet to push will re-check the condition after announcing).
func (q *Queue) Grant() bool {
	if q.n.Load() == 0 {
		return false
	}
	chaos.Point("waitq.grant.enter")
	q.lock.Lock(nil)
	w := q.head
	if w == nil {
		q.lock.Unlock()
		return false
	}
	q.unlink(w)
	w.state = stateGranted
	w.ready <- struct{}{}
	q.lock.Unlock()
	return true
}

// GrantAll wakes every queued waiter (the broadcast used by RWMutex's
// writer release) and returns how many it woke.
func (q *Queue) GrantAll() int {
	if q.n.Load() == 0 {
		return 0
	}
	q.lock.Lock(nil)
	woken := 0
	for w := q.head; w != nil; {
		next := w.next
		q.unlink(w)
		w.state = stateGranted
		w.ready <- struct{}{}
		woken++
		w = next
	}
	q.lock.Unlock()
	return woken
}

// abandon ends w's wait from the waiter's side: the handoff-or-abandon
// step a waiter runs when it stops waiting for any reason other than
// consuming its token — context cancellation, or having acquired the
// awaited resource while still enqueued. If w is still queued it is
// unlinked and abandon returns true (a clean abandon: no grant existed, so
// none can be lost). Otherwise a grant has already been delivered — the
// race the no-lost-wakeup proof in DESIGN.md §5 is about — and abandon
// consumes the token and passes the wakeup on to the queue's next waiter,
// returning false. Either way w's wait has fully ended on return and w may
// be re-pushed or put back in the pool.
func (q *Queue) abandon(w *waiter) bool {
	chaos.Point("waitq.abandon.enter")
	q.lock.Lock(nil)
	switch w.state {
	case stateQueued:
		q.unlink(w)
		w.state = stateIdle
		q.lock.Unlock()
		return true
	case stateGranted:
		w.state = stateIdle
		q.lock.Unlock()
		// The token was sent under the lock before the granted state we
		// just observed was set, so this receive never blocks.
		<-w.ready
		q.Grant()
		return false
	}
	q.lock.Unlock()
	panic("waitq: abandon of a waiter that is not waiting")
}

// Wait is the two-phase wait of the thesis's Chapter 4, the only park
// loop in the tree. Phase one polls try through budget iterations,
// yielding the processor between attempts and checking done after each
// failed one, so a cancelled waiter stops consuming its budget at once
// instead of spinning it down. Phase two
// signals: announce a pooled waiter on q, re-test try — the
// announce-then-check step, so a peer that made try succeed before it
// could observe the queue cannot strand this waiter — and block until a
// grant or done, re-announcing after every grant (grants are hints; try
// alone decides). A waiter that stops being one — try succeeded while
// queued, or done closed — leaves through abandon, so a grant that raced
// in is passed on, never lost.
//
// The push is the waiter's one announcement: it raises Len before the
// re-test, so a releaser that makes try succeed and then finds Len
// zero is one whose release the re-test sees. try reports whether the
// awaited condition now holds (for a lock: was just acquired), and is
// asked the same question in both phases. Wait reports only whether
// the wait was aborted by done; a nil done never aborts.
func (q *Queue) Wait(budget int32, done <-chan struct{}, try func() bool) (aborted bool) {
	for i := int32(0); i < budget; i++ {
		if try() {
			return false
		}
		select {
		case <-done: // a nil done is never ready
			return true
		default:
		}
		runtime.Gosched()
	}
	w := get()
	defer put(w)
	for {
		q.push(w)
		chaos.Point("waitq.wait.announced")
		if try() {
			q.abandon(w)
			return false
		}
		if done == nil {
			<-w.ready
			continue
		}
		select {
		case <-w.ready:
		case <-done:
			q.abandon(w)
			return true
		}
	}
}
