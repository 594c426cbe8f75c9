package waitq

import "testing"

// The waiter-lifecycle panics guard the pool and FIFO against
// use-after-wait bugs in the primitives; their messages are pinned so a
// crash log identifies the violated rule exactly.
func TestWaiterMisusePanics(t *testing.T) {
	cases := []struct {
		name string
		want string
		f    func()
	}{
		{"put of queued waiter", "waitq: put of a waiter whose wait has not ended", func() {
			var q Queue
			w := get()
			q.push(w)
			defer func() { // leave the queue consistent for the pool
				recover()
				q.abandon(w)
				put(w)
				panic("waitq: put of a waiter whose wait has not ended")
			}()
			put(w)
		}},
		{"re-push of queued waiter", "waitq: push of a waiter whose previous wait has not ended", func() {
			var q Queue
			w := get()
			q.push(w)
			defer func() {
				recover()
				q.abandon(w)
				put(w)
				panic("waitq: push of a waiter whose previous wait has not ended")
			}()
			q.push(w)
		}},
		{"abandon of idle waiter", "waitq: abandon of a waiter that is not waiting", func() {
			var q Queue
			w := get()
			defer put(w)
			q.abandon(w)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if got, ok := r.(string); !ok || got != tc.want {
					t.Fatalf("panicked with %v, want %q", r, tc.want)
				}
			}()
			tc.f()
		})
	}
}
