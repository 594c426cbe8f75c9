package waitq

import "testing"

// Model states for the fuzz harness, mirroring the package's own.
const (
	mIdle = iota
	mQueued
	mToken // granted: exactly one token sits in the waiter's channel
)

// FuzzWaitqOps drives a Queue with an arbitrary op sequence against a
// model FIFO and verifies after every op that the queue's structure
// (Check), its length mirror, FIFO grant order, and token conservation
// — every grant delivers exactly one token, consumed exactly once —
// all hold. Op bytes decode to (op, waiter) pairs over a fixed pool of
// eight waiters; ops illegal for the waiter's current state are
// skipped, so every byte string is a valid schedule and the fuzzer's
// whole input space explores interleavings rather than tripping
// lifecycle panics (those are pinned separately in misuse_test.go).
func FuzzWaitqOps(f *testing.F) {
	f.Add([]byte{0, 5, 10, 15, 20})                              // push/grant mix
	f.Add([]byte{0, 1, 2, 3, 5, 9, 13, 17, 3, 3, 3})             // fill then drain
	f.Add([]byte{0, 4, 0, 4, 0, 4})                              // push/abandon churn
	f.Add([]byte{0, 1, 2, 10, 3, 4, 15, 0})                      // grant races abandon
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 18, 18, 18, 18, 18, 2}) // grantall storms
	f.Fuzz(func(t *testing.T, ops []byte) {
		const nw = 8
		var q Queue
		ws := make([]*waiter, nw)
		for i := range ws {
			ws[i] = &waiter{ready: make(chan struct{}, 1)}
		}
		state := make([]int, nw) // model per-waiter state
		var fifo []int           // model queue: waiter indices in FIFO order

		popModel := func(i int) { // remove waiter i from the model queue
			for j, v := range fifo {
				if v == i {
					fifo = append(fifo[:j], fifo[j+1:]...)
					return
				}
			}
			t.Fatalf("model queue lost waiter %d", i)
		}
		grantModel := func() { // model Grant: head becomes token-holder
			if len(fifo) == 0 {
				return
			}
			h := fifo[0]
			fifo = fifo[1:]
			state[h] = mToken
		}

		for _, b := range ops {
			w := int(b) % nw
			switch op := int(b) / nw % 5; op {
			case 0: // Push
				if state[w] != mIdle {
					continue
				}
				q.push(ws[w])
				state[w] = mQueued
				fifo = append(fifo, w)
			case 1: // Grant
				got := q.Grant()
				if want := len(fifo) > 0; got != want {
					t.Fatalf("Grant = %v with %d queued", got, len(fifo))
				}
				grantModel()
			case 2: // GrantAll
				got := q.GrantAll()
				if got != len(fifo) {
					t.Fatalf("GrantAll woke %d, model has %d queued", got, len(fifo))
				}
				for len(fifo) > 0 {
					grantModel()
				}
			case 3: // Consume the token (the wakeup a parked waiter gets)
				if state[w] != mToken {
					continue
				}
				select {
				case <-ws[w].ready:
				default:
					t.Fatalf("waiter %d granted but no token delivered", w)
				}
				state[w] = mIdle
			case 4: // Abandon (cancellation / acquired-while-queued)
				switch state[w] {
				case mQueued:
					if !q.abandon(ws[w]) {
						t.Fatalf("Abandon of queued waiter %d reported a grant", w)
					}
					popModel(w)
					state[w] = mIdle
				case mToken:
					// Handoff: the token must be consumed and passed on.
					if q.abandon(ws[w]) {
						t.Fatalf("Abandon of granted waiter %d reported a clean leave", w)
					}
					state[w] = mIdle
					grantModel()
				}
			}

			if err := q.Check(); err != nil {
				t.Fatal(err)
			}
			if got, want := q.Len(), len(fifo); got != want {
				t.Fatalf("Len = %d, model has %d", got, want)
			}
			// Token conservation: token-holders have exactly one token,
			// everyone else none.
			for i, st := range state {
				if n := len(ws[i].ready); (st == mToken) != (n == 1) {
					t.Fatalf("waiter %d state %d holds %d tokens", i, st, n)
				}
			}
		}

		// Drain: every wait must be endable, FIFO order preserved.
		for len(fifo) > 0 {
			h := fifo[0]
			if !q.Grant() {
				t.Fatal("Grant failed with queued waiters")
			}
			grantModel()
			select {
			case <-ws[h].ready:
			default:
				t.Fatalf("FIFO head %d not granted", h)
			}
			state[h] = mIdle
		}
		for i, st := range state {
			if st == mToken {
				<-ws[i].ready
			}
		}
		if err := q.Check(); err != nil {
			t.Fatal(err)
		}
		if q.Len() != 0 {
			t.Fatalf("drained queue has Len %d", q.Len())
		}
	})
}
