package waitq

import (
	"strings"
	"testing"
)

func TestCheckOnLiveQueue(t *testing.T) {
	var q Queue
	if err := q.Check(); err != nil {
		t.Fatalf("empty queue: %v", err)
	}
	ws := make([]*waiter, 3)
	for i := range ws {
		ws[i] = get()
		q.push(ws[i])
	}
	if err := q.Check(); err != nil {
		t.Fatalf("queue of 3: %v", err)
	}
	q.Grant()
	<-ws[0].ready
	q.abandon(ws[1])
	if err := q.Check(); err != nil {
		t.Fatalf("after grant+abandon: %v", err)
	}
	q.abandon(ws[2])
	for _, w := range ws {
		put(w)
	}
	if err := q.Check(); err != nil {
		t.Fatalf("drained queue: %v", err)
	}
}

func TestCheckCatchesLengthMirrorSkew(t *testing.T) {
	var q Queue
	w := get()
	q.push(w)
	q.n.Add(1) // corrupt the mirror
	err := q.Check()
	if err == nil || !strings.Contains(err.Error(), "length mirror") {
		t.Fatalf("skewed mirror not caught: %v", err)
	}
	q.n.Add(-1)
	q.abandon(w)
	put(w)
}

func TestCheckCatchesBrokenBackLink(t *testing.T) {
	var q Queue
	a, b := get(), get()
	q.push(a)
	q.push(b)
	b.prev = nil // corrupt the back link
	err := q.Check()
	if err == nil || !strings.Contains(err.Error(), "prev") {
		t.Fatalf("broken back link not caught: %v", err)
	}
	b.prev = a
	q.abandon(b)
	q.abandon(a)
	put(a)
	put(b)
}
