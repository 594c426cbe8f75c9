package waitq

import (
	"sync/atomic"
	"testing"
	"time"
)

// testLock is the smallest barging lock that blocks through Queue.Wait:
// one state word taken by CAS, release-then-grant on unlock. It waits
// the way every primitive in package reactive does, with nothing else
// on top.
type testLock struct {
	held atomic.Bool
	q    Queue
}

func (l *testLock) lock(done <-chan struct{}) (aborted bool) {
	return l.q.Wait(1, done, func() bool { return l.held.CompareAndSwap(false, true) })
}

func (l *testLock) unlock() {
	l.held.Store(false)
	l.q.Grant()
}

// pollCalls counts the two kinds of try in one Wait: polls of phase one
// and post-announce re-tests. With one waiter on the queue, try tells
// them apart by q.Len() > 0: only a re-test runs with the waiter pushed.
type pollCalls struct{ polls, retests int }

// pollCase is one run of Wait's poll phase: try succeeds on poll
// succeedAt (0 never) and every re-test returns retest.
type pollCase struct {
	name      string
	budget    int32
	done      <-chan struct{}
	succeedAt int
	retest    bool
	want      pollCalls
	aborted   bool
}

func runPollCases(t *testing.T, cases []pollCase) {
	t.Helper()
	var q Queue
	for _, tc := range cases {
		var got pollCalls
		aborted := q.Wait(tc.budget, tc.done, func() bool {
			if q.Len() > 0 {
				got.retests++
				return tc.retest
			}
			got.polls++
			return got.polls == tc.succeedAt
		})
		if n := q.Len(); n != 0 {
			t.Fatalf("%s: %d waiters left queued", tc.name, n)
		}
		if got != tc.want || aborted != tc.aborted {
			t.Errorf("%s: (polls, retests) = %v, aborted %v; want %v, %v", tc.name, got, aborted, tc.want, tc.aborted)
		}
	}
}

// TestWaitPoll pins phase one without a done channel: a zero budget never
// polls, a success within the budget ends the wait without announcing,
// and an exhausted budget announces — the post-announce re-test is the
// first try with the waiter queued.
func TestWaitPoll(t *testing.T) {
	runPollCases(t, []pollCase{
		{"zero budget never polls", 0, nil, 1, true, pollCalls{0, 1}, false},
		{"success within budget", 5, nil, 3, false, pollCalls{3, 0}, false},
		{"nil done: the budget governs, then parks", 4, nil, 0, true, pollCalls{4, 1}, false},
	})
}

// TestWaitPollCh pins phase one against a done channel: a nil done never
// aborts, a closed done aborts after the first failed try (the try runs
// first, so a success on that iteration wins), and an open done lets the
// budget govern.
func TestWaitPollCh(t *testing.T) {
	closed := make(chan struct{})
	close(closed)
	open := make(chan struct{})
	runPollCases(t, []pollCase{
		{"nil done: success within budget", 5, nil, 3, false, pollCalls{3, 0}, false},
		{"closed done aborts after one try", 1000, closed, 0, false, pollCalls{1, 0}, true},
		{"success beats a closed done", 3, closed, 1, false, pollCalls{1, 0}, false},
		{"open done: the budget governs, then parks", 4, open, 0, true, pollCalls{4, 1}, false},
	})
}

// TestWaitGrantVsCancel is the grant-vs-cancel race of DESIGN.md §5 on
// the shared wait alone: waiter A (cancellable) and waiter B (nil done)
// park behind a holder, and the holder releases at the moment A is
// cancelled. Whichever event reaches A first, B must end up with the
// lock: a grant delivered to the aborting waiter is passed on by the
// wait's Abandon, not dropped.
func TestWaitGrantVsCancel(t *testing.T) {
	rounds := 200
	if testing.Short() {
		rounds = 60
	}
	for i := 0; i < rounds; i++ {
		var l testLock
		l.lock(nil)
		done := make(chan struct{})
		aAborted := make(chan bool, 1)
		go func() { aAborted <- l.lock(done) }()
		bDone := make(chan struct{})
		go func() {
			l.lock(nil)
			l.unlock()
			close(bDone)
		}()
		for l.q.Len() < 2 { // both announced (parked, or about to re-test and park)
			time.Sleep(20 * time.Microsecond)
		}
		go close(done)
		l.unlock()
		select {
		case aborted := <-aAborted:
			if !aborted {
				l.unlock() // A won the race and holds the lock
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: cancelled waiter A stranded", i)
		}
		select {
		case <-bDone:
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: waiter B stranded — a wakeup was lost to a cancelled waiter", i)
		}
		if n := l.q.Len(); n != 0 {
			t.Fatalf("round %d: %d waiters left queued", i, n)
		}
		if err := l.q.Check(); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
	}
}

// TestWaitTryAfterAnnouncePassesGrantOn: a waiter whose post-announce
// re-test succeeds leaves through Abandon, so a grant that raced in
// between its announce and its re-test wakes the next waiter instead of
// dying with it. The race is staged from inside try, which runs exactly
// in that window.
func TestWaitTryAfterAnnouncePassesGrantOn(t *testing.T) {
	var q Queue
	next := get()
	announcedCalls := 0
	aborted := q.Wait(0, nil, func() bool {
		if q.Len() == 0 {
			t.Fatal("budget 0 must not poll")
		}
		announcedCalls++
		q.push(next) // a second waiter queues behind the one under test
		if !q.Grant() {
			t.Fatal("no waiter to grant to after the announce")
		}
		return true // the condition came true while the grant was in flight
	})
	if aborted {
		t.Fatal("nil done aborted the wait")
	}
	if announcedCalls != 1 {
		t.Fatalf("the post-announce try ran %d times, want 1", announcedCalls)
	}
	select {
	case <-next.ready:
	default:
		t.Fatal("the raced grant died with the leaving waiter instead of being passed on")
	}
	put(next)
	if n := q.Len(); n != 0 {
		t.Fatalf("%d waiters left queued", n)
	}
}

// TestWaitNilDoneNeverAborts: with a nil done the wait ends only when
// try succeeds — after polling out its budget, parking, and being
// granted — and reports not-aborted; a closed done aborts both phases.
func TestWaitNilDoneNeverAborts(t *testing.T) {
	var q Queue
	var open atomic.Bool
	var polls, retests atomic.Int32
	res := make(chan bool, 1)
	go func() {
		res <- q.Wait(3, nil, func() bool {
			if q.Len() > 0 {
				retests.Add(1)
			} else {
				polls.Add(1)
			}
			return open.Load()
		})
	}()
	for q.Len() == 0 {
		time.Sleep(20 * time.Microsecond)
	}
	q.Grant() // a hint with the condition still false: the waiter must re-park
	for retests.Load() < 2 {
		time.Sleep(20 * time.Microsecond)
	}
	select {
	case <-res:
		t.Fatal("wait ended while try still reported false")
	default:
	}
	open.Store(true)
	q.Grant()
	select {
	case aborted := <-res:
		if aborted {
			t.Fatal("nil done reported aborted")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("waiter stranded after release-then-grant")
	}
	if got := polls.Load(); got != 3 {
		t.Fatalf("phase one polled %d times, want the budget of 3", got)
	}

	done := make(chan struct{})
	close(done)
	never := func() bool { return false }
	if !q.Wait(3, done, never) {
		t.Fatal("closed done did not abort phase one")
	}
	if !q.Wait(0, done, never) {
		t.Fatal("closed done did not abort phase two")
	}
	if n := q.Len(); n != 0 {
		t.Fatalf("%d waiters left queued after aborted waits", n)
	}
}
