package reactive

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMutualExclusion(t *testing.T) {
	var m Mutex
	var wg sync.WaitGroup
	counter := 0
	const goroutines, iters = 16, 2000
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				m.Lock()
				counter++
				m.Unlock()
			}
		}()
	}
	wg.Wait()
	if counter != goroutines*iters {
		t.Fatalf("counter = %d, want %d", counter, goroutines*iters)
	}
}

func TestMutualExclusionWithContention(t *testing.T) {
	var m Mutex
	var inCS atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				m.Lock()
				if inCS.Add(1) != 1 {
					t.Error("mutual exclusion violated")
				}
				for k := 0; k < 100; k++ {
					runtime.Gosched()
				}
				inCS.Add(-1)
				m.Unlock()
			}
		}()
	}
	wg.Wait()
}

func TestTryLock(t *testing.T) {
	var m Mutex
	if !m.TryLock() {
		t.Fatal("TryLock on free mutex failed")
	}
	if m.TryLock() {
		t.Fatal("TryLock on held mutex succeeded")
	}
	m.Unlock()
	if !m.TryLock() {
		t.Fatal("TryLock after unlock failed")
	}
	m.Unlock()
}

func TestUnlockOfUnlockedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	var m Mutex
	m.Unlock()
}

func TestSwitchesToParkUnderContention(t *testing.T) {
	var m Mutex
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 2*runtime.GOMAXPROCS(0)+2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				m.Lock()
				for k := 0; k < 200; k++ {
					runtime.Gosched()
				}
				m.Unlock()
			}
		}()
	}
	deadline := time.After(3 * time.Second)
	for m.Stats().Mode != ModePark {
		select {
		case <-deadline:
			close(stop)
			wg.Wait()
			t.Skip("contention never detected on this host (single CPU?)")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	close(stop)
	wg.Wait()
	if m.Stats().Switches == 0 {
		t.Fatal("no protocol switches recorded")
	}
}

func TestReturnsToSpinWhenIdle(t *testing.T) {
	var m Mutex
	m.switchMode(mSpin, mPark) // force park mode
	for i := 0; i < 4*DefaultEmptyLimit; i++ {
		m.Lock()
		m.Unlock()
	}
	if got := m.Stats().Mode; got != ModeSpin {
		t.Fatalf("mode = %v after uncontended unlocks, want spin", got)
	}
}

func TestNoLostWakeups(t *testing.T) {
	// Hammer lock/unlock with goroutines forced through the park path.
	var m Mutex
	m.switchMode(mSpin, mPark)
	var wg sync.WaitGroup
	total := atomic.Int64{}
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				m.Lock()
				total.Add(1)
				m.Unlock()
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("probable lost wakeup: %d/%d ops completed", total.Load(), 32*300)
	}
}

// TestNoLostWakeupsAcrossModeSwitch: a waiter parked in park mode is
// woken by an Unlock that runs after the mode went back to spin. Unlock
// grants whenever a waiter is queued, whatever the mode, so a park→spin
// commit owes parked waiters no wakeup of its own.
func TestNoLostWakeupsAcrossModeSwitch(t *testing.T) {
	m := New(WithPollIters(1), WithInitialMode(ModePark))
	m.Lock()
	acquired := make(chan struct{})
	go func() {
		m.Lock()
		close(acquired)
	}()
	for m.Stats().Waiters == 0 {
		time.Sleep(20 * time.Microsecond)
	}
	time.Sleep(time.Millisecond) // let the announced waiter fail its re-test and park
	m.switchMode(mPark, mSpin)
	m.Unlock()
	select {
	case <-acquired:
	case <-time.After(10 * time.Second):
		t.Fatal("a waiter parked before a park→spin switch was stranded by the next Unlock")
	}
	m.Unlock()
}

func TestZeroValueReady(t *testing.T) {
	var m Mutex
	m.Lock()
	m.Unlock()
	if m.Stats().Mode != ModeSpin {
		t.Fatal("zero value should start in spin mode")
	}
}

func BenchmarkUncontended(b *testing.B) {
	var m Mutex
	b.Run("reactive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.Lock()
			m.Unlock()
		}
	})
	var sm sync.Mutex
	b.Run("sync.Mutex", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sm.Lock()
			sm.Unlock()
		}
	})
}

func BenchmarkContended(b *testing.B) {
	b.Run("reactive", func(b *testing.B) {
		var m Mutex
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				m.Lock()
				m.Unlock()
			}
		})
	})
	b.Run("sync.Mutex", func(b *testing.B) {
		var m sync.Mutex
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				m.Lock()
				m.Unlock()
			}
		})
	})
}
