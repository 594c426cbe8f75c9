// Hitcounter: a shared event counter under a load ramp — the fetch-and-op
// scenario from the thesis's introduction, on the native reactive.Counter
// (the add-only specialization of reactive.FetchOp's modal object). As
// offered load ramps up, the counter moves from a single CAS word at one
// client to per-processor sharded cells once update contention appears —
// and stays sharded when reconciling reads join the burst, because
// nothing above the sharded protocol pays for itself — then back to the
// CAS word as the load drops. Each phase prints the protocol the counter
// crossed into, so the crossover is visible; the same ramp is repeated
// with the passive alternatives (a bare atomic.Int64 and a
// sync.Mutex-guarded int) for comparison.
//
//	go run ./examples/hitcounter
package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/reactive"
)

const opsPerGoroutine = 30000

// phase is one step of the load ramp: clients concurrent writers, plus
// (for the reactive counter) a reconciling reader when readers is set —
// read pressure on top of the write-only sharded regime.
type phase struct {
	name    string
	clients int
	readers bool
}

func rampPhases() []phase {
	p := runtime.GOMAXPROCS(0)
	return []phase{
		{"solo", 1, false},
		{"busy", p, false},
		{"busy+readers", 4 * p, true},
		{"cooling", p, false},
		{"solo again", 1, false},
	}
}

// ramp drives the load ramp against one add function and returns the
// total elapsed time. load, if non-nil, is called by a concurrent reader
// during phases that have one; report, if non-nil, runs after each phase.
func ramp(add func(int64), load func() int64, report func(ph phase)) time.Duration {
	start := time.Now()
	for _, ph := range rampPhases() {
		stop := make(chan struct{})
		var rwg sync.WaitGroup
		if ph.readers && load != nil {
			rwg.Add(1)
			go func() { // reconciling reader: frequent Loads during the burst
				defer rwg.Done()
				for {
					select {
					case <-stop:
						return
					default:
						load()
						time.Sleep(50 * time.Microsecond)
					}
				}
			}()
		}
		var wg sync.WaitGroup
		for g := 0; g < ph.clients; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < opsPerGoroutine; i++ {
					add(1)
				}
			}()
		}
		wg.Wait()
		close(stop)
		rwg.Wait()
		if report != nil {
			report(ph)
		}
	}
	return time.Since(start)
}

func main() {
	fmt.Printf("GOMAXPROCS=%d, %d ops per goroutine per phase\n\n",
		runtime.GOMAXPROCS(0), opsPerGoroutine)

	c := reactive.NewCounter(reactive.WithSpinFailLimit(2), reactive.WithEmptyLimit(3))
	prev := c.Stats()
	el := ramp(c.Add, c.Load, func(ph phase) {
		c.Load() // reconcile (and let the counter re-evaluate contention)
		st := c.Stats()
		cross := ""
		if st.Mode != prev.Mode {
			cross = fmt.Sprintf("   << crossover: %v → %v", prev.Mode, st.Mode)
		}
		fmt.Printf("  %-14s (%3d clients): protocol=%-9v %2d changes so far%s\n",
			ph.name, ph.clients, st.Mode, st.Switches, cross)
		prev = st
	})
	fmt.Printf("reactive.Counter:  %8.2fms (count=%d, %d protocol changes)\n\n",
		float64(el.Microseconds())/1000, c.Load(), c.Stats().Switches)

	var ai atomic.Int64
	el = ramp(func(d int64) { ai.Add(d) }, ai.Load, nil)
	fmt.Printf("atomic.Int64:      %8.2fms (count=%d)\n",
		float64(el.Microseconds())/1000, ai.Load())

	var mu sync.Mutex
	var guarded int64
	el = ramp(func(d int64) {
		mu.Lock()
		guarded += d
		mu.Unlock()
	}, func() int64 { mu.Lock(); defer mu.Unlock(); return guarded }, nil)
	fmt.Printf("sync.Mutex + int:  %8.2fms (count=%d)\n",
		float64(el.Microseconds())/1000, guarded)
}
