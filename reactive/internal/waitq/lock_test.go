package waitq

import (
	"sync"
	"testing"
	"time"
)

func TestLockTryLockHeldUnlock(t *testing.T) {
	var l Lock
	if l.Held() {
		t.Fatal("zero Lock reads held")
	}
	if !l.TryLock() {
		t.Fatal("TryLock of a free Lock failed")
	}
	if !l.Held() {
		t.Fatal("Held is false after TryLock")
	}
	if l.TryLock() {
		t.Fatal("TryLock of a held Lock succeeded")
	}
	l.Unlock()
	if l.Held() {
		t.Fatal("Held is true after Unlock")
	}
	if contended, aborted := l.Lock(nil); contended || aborted {
		t.Fatalf("Lock of a free Lock = (contended %v, aborted %v), want (false, false)", contended, aborted)
	}
	l.Unlock()
}

// TestLockContendedThenAborted: Lock on a held word waits and reports
// contended once the holder leaves; with a closed done it gives up and
// leaves the word as it found it.
func TestLockContendedThenAborted(t *testing.T) {
	var l Lock
	l.TryLock()
	go func() {
		time.Sleep(time.Millisecond)
		l.Unlock()
	}()
	if contended, aborted := l.Lock(nil); !contended || aborted {
		t.Fatalf("Lock of a held Lock = (contended %v, aborted %v), want (true, false)", contended, aborted)
	}

	done := make(chan struct{})
	close(done)
	if contended, aborted := l.Lock(done); !contended || !aborted {
		t.Fatalf("Lock(closed done) of a held Lock = (contended %v, aborted %v), want (true, true)", contended, aborted)
	}
	l.Unlock()
	if l.Held() {
		t.Fatal("an aborted Lock took the word")
	}
}

// TestLockExcludes: increments of an unsynchronized counter under the
// lock stay exact, and the race detector sees the lock's ordering.
func TestLockExcludes(t *testing.T) {
	const goroutines, incs = 8, 10_000
	var (
		l  Lock
		n  int
		wg sync.WaitGroup
	)
	for range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range incs {
				l.Lock(nil)
				n++
				l.Unlock()
			}
		}()
	}
	wg.Wait()
	if n != goroutines*incs {
		t.Fatalf("counter = %d, want %d", n, goroutines*incs)
	}
}

func TestBackoffPausesAndDoubles(t *testing.T) {
	var b Backoff
	for i := 0; i < 20; i++ {
		b.Pause()
	}
	if b.mean != BackoffMax {
		t.Fatalf("mean = %d after many pauses, want capped at %d", b.mean, BackoffMax)
	}
	// Two zero-value backoffs must not share a seed (decorrelation).
	var b1, b2 Backoff
	b1.Pause()
	b2.Pause()
	if b1.seed == b2.seed {
		t.Fatal("independent Backoffs share a seed")
	}
}
