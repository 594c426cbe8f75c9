package waitq

import "fmt"

// Check walks the queue under its lock and verifies structural
// integrity: the doubly-linked list is well formed in both directions,
// every linked node is in the queued state with no token in flight, and
// the lock-free length mirror agrees with the walk. It returns the
// first violation found, or nil. Check is for tests and torture runs —
// it serializes against all queue operations, so it is cheap but not
// free; production paths never call it.
func (q *Queue) Check() error {
	q.lock.Lock(nil)
	defer q.lock.Unlock()
	var (
		walked int32
		prev   *waiter
	)
	for w := q.head; w != nil; w = w.next {
		if w.prev != prev {
			return fmt.Errorf("waitq: node %d has prev %p, want %p", walked, w.prev, prev)
		}
		if w.state != stateQueued {
			return fmt.Errorf("waitq: linked node %d in state %d, want queued", walked, w.state)
		}
		if len(w.ready) != 0 {
			return fmt.Errorf("waitq: linked node %d holds an undelivered grant token", walked)
		}
		walked++
		if walked > 1<<20 {
			return fmt.Errorf("waitq: list walk exceeded 2^20 nodes (cycle?)")
		}
		prev = w
	}
	if q.tail != prev {
		return fmt.Errorf("waitq: tail is %p, want last walked node %p", q.tail, prev)
	}
	if n := q.n.Load(); n != walked {
		return fmt.Errorf("waitq: length mirror reads %d, walk found %d", n, walked)
	}
	return nil
}
