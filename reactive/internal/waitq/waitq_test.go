package waitq

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestGrantFIFOOrder(t *testing.T) {
	var q Queue
	ws := make([]*waiter, 4)
	for i := range ws {
		ws[i] = get()
		q.push(ws[i])
	}
	if q.Len() != len(ws) {
		t.Fatalf("Len = %d, want %d", q.Len(), len(ws))
	}
	for i, w := range ws {
		if !q.Grant() {
			t.Fatalf("Grant %d failed with %d waiters queued", i, q.Len())
		}
		select {
		case <-w.ready:
		default:
			t.Fatalf("grant %d did not wake the oldest waiter", i)
		}
		put(w)
	}
	if q.Grant() {
		t.Fatal("Grant on an empty queue reported a wakeup")
	}
}

func TestAbandonBeforeGrant(t *testing.T) {
	var q Queue
	a, b := get(), get()
	q.push(a)
	q.push(b)
	if !q.abandon(a) {
		t.Fatal("Abandon of an ungranted waiter returned false")
	}
	if q.Len() != 1 {
		t.Fatalf("Len = %d after abandon, want 1", q.Len())
	}
	// The remaining waiter still gets the next grant.
	q.Grant()
	select {
	case <-b.ready:
	default:
		t.Fatal("grant after abandon missed the remaining waiter")
	}
	put(a)
	put(b)
}

// TestAbandonAfterGrantPassesOn is the handoff-or-abandon contract: a
// waiter whose grant raced its cancellation consumes the token and hands
// the wakeup to the next waiter, so no wakeup is lost.
func TestAbandonAfterGrantPassesOn(t *testing.T) {
	var q Queue
	a, b := get(), get()
	q.push(a)
	q.push(b)
	q.Grant() // a granted; token delivered
	if q.abandon(a) {
		t.Fatal("Abandon of a granted waiter returned true")
	}
	select {
	case <-b.ready:
	default:
		t.Fatal("abandoned grant was not passed on to the next waiter")
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d, want 0", q.Len())
	}
	put(a)
	put(b)
}

func TestGrantAll(t *testing.T) {
	var q Queue
	ws := make([]*waiter, 5)
	for i := range ws {
		ws[i] = get()
		q.push(ws[i])
	}
	if n := q.GrantAll(); n != len(ws) {
		t.Fatalf("GrantAll woke %d, want %d", n, len(ws))
	}
	for i, w := range ws {
		select {
		case <-w.ready:
		default:
			t.Fatalf("waiter %d missed the broadcast", i)
		}
		put(w)
	}
	if n := q.GrantAll(); n != 0 {
		t.Fatalf("GrantAll on empty queue woke %d", n)
	}
}

func TestPutPanicsOnUndeliveredGrant(t *testing.T) {
	var q Queue
	w := get()
	q.push(w)
	q.Grant()
	defer func() {
		if recover() == nil {
			t.Fatal("Put with an unconsumed token did not panic")
		}
		<-w.ready
		put(w)
	}()
	put(w)
}

func TestReuseAcrossQueues(t *testing.T) {
	var q1, q2 Queue
	w := get()
	q1.push(w)
	q1.Grant()
	<-w.ready
	q2.push(w)
	if !q2.abandon(w) {
		t.Fatal("abandon on second queue failed")
	}
	put(w)
}

// TestStressGrantVsAbandon hammers the grant-vs-cancel race: waiters park
// and are either granted or abandon concurrently, while a granter thread
// delivers exactly as many grants as there are acquisitions to hand out.
// The invariant under test is that every delivered grant wakes someone
// while any waiter remains — the no-lost-wakeup property.
func TestStressGrantVsAbandon(t *testing.T) {
	var q Queue
	const waiters = 16
	iters := 500
	if testing.Short() {
		iters = 150
	}
	var granted atomic.Int64 // tokens consumed via Ready
	var abandoned atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < waiters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			w := get()
			defer put(w)
			for i := 0; i < iters; i++ {
				q.push(w)
				if (i+g)%3 == 0 {
					// Cancel path: may race an in-flight grant.
					if !q.abandon(w) {
						abandoned.Add(1)
					}
					continue
				}
				select {
				case <-w.ready:
					granted.Add(1)
				case <-time.After(10 * time.Second):
					t.Errorf("waiter %d stranded at iter %d (len=%d)", g, i, q.Len())
					q.abandon(w)
					return
				}
			}
		}(g)
	}
	stop := make(chan struct{})
	var gwg sync.WaitGroup
	gwg.Add(1)
	go func() {
		defer gwg.Done()
		for {
			select {
			case <-stop:
				// Drain any waiters still parked at shutdown.
				for q.GrantAll() > 0 {
				}
				return
			default:
				if !q.Grant() {
					runtime.Gosched()
				}
			}
		}
	}()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatalf("stress did not complete: len=%d granted=%d abandoned=%d",
			q.Len(), granted.Load(), abandoned.Load())
	}
	close(stop)
	gwg.Wait()
	if q.Len() != 0 {
		t.Fatalf("queue not empty at exit: %d", q.Len())
	}
}
