// Pipeline: a native Go processing pipeline whose stages consult a shared
// routing table on every item, under a per-request deadline — the workload
// the context-aware acquisition API is for. The table is guarded by a
// reactive.RWMutex; each lookup uses RLockCtx with a small per-item
// timeout. While writers (config updates) are rare and quick, every lookup
// reads the live table; when a slow bulk rebuild holds the write lock past
// an item's deadline, the stage degrades to the last published immutable
// snapshot instead of stalling the pipeline — stale routing beats no
// routing. Meanwhile the lock itself adapts: a reader that meets a writer
// polls through its budget and then parks until the release, and where
// enough cores make readers collide on the shared reader count, their
// registration protocol climbs toward per-processor cells and walks back
// once the stages drain.
//
// The lock's decisions are watched the way an operator would: the
// RWMutex is registered in a reactivehttp.Registry, published over
// expvar, and scraped through the /debug/reactive endpoint after each
// phase — the printed delta/rate lines come from the HTTP response, not
// from in-process state.
//
//	go run ./examples/pipeline
package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/reactive"
	"repro/reactive/reactivehttp"
)

// routes is the shared routing table: item key → pipeline stage weight.
type routes map[int]int

// snapshot returns an immutable copy for the stale-read fallback path.
func (r routes) snapshot() routes {
	s := make(routes, len(r))
	for k, v := range r {
		s[k] = v
	}
	return s
}

func main() {
	rw := reactive.NewRWMutex(reactive.WithSpinFailLimit(2), reactive.WithPollIters(32))
	table := routes{}
	for k := 0; k < 64; k++ {
		table[k] = k % 7
	}

	// stale holds the last snapshot a writer published: the degraded data
	// a stage falls back to when its RLockCtx deadline expires.
	var stale atomic.Pointer[routes]
	publish := func() {
		s := table.snapshot()
		stale.Store(&s)
	}
	publish()

	// Telemetry: name the lock, publish the registry on /debug/vars, and
	// mount the poll-aware /debug/reactive handler. An httptest server
	// keeps the example self-contained; a real service would mount on its
	// own mux (or pass nil for http.DefaultServeMux).
	// hot is a per-key hit cache on the adaptive map: read-mostly once
	// warm, so its own modal engine is free to climb toward the
	// published-table epoch protocol while the route lock adapts
	// independently.
	hot := reactive.NewMap[int, int]()

	var registry reactivehttp.Registry
	registry.Register("routes", rw)
	registry.Register("hot", hot)
	reactivehttp.Publish("pipeline", &registry)
	mux := http.NewServeMux()
	reactivehttp.Handle(mux, &registry)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	var fresh, degraded, processed atomic.Int64
	// lookup routes one item within deadline d: live table when the read
	// lock arrives in time, last snapshot otherwise.
	lookup := func(key int, d time.Duration) int {
		ctx, cancel := context.WithTimeout(context.Background(), d)
		defer cancel()
		if err := rw.RLockCtx(ctx); err != nil {
			if !errors.Is(err, context.DeadlineExceeded) {
				panic(err) // only the deadline can end this context
			}
			degraded.Add(1)
			return (*stale.Load())[key]
		}
		w := table[key]
		rw.RUnlock()
		fresh.Add(1)
		if cached, ok := hot.Get(key); !ok || cached != w {
			hot.Put(key, w) // warm or refresh; steady state is pure reads
		}
		return w
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Pipeline stages: each item's routing is a deadline-bounded lookup.
	for s := 0; s < 2*runtime.GOMAXPROCS(0); s++ {
		wg.Add(1)
		go func(stage int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				_ = lookup((stage+i)%64, 500*time.Microsecond)
				processed.Add(1)
			}
		}(s)
	}

	// report scrapes /debug/reactive like a monitoring agent would and
	// prints the pipeline's own counters next to the lock telemetry the
	// endpoint computed for this poll interval: the readers' registration
	// protocol, the goroutines parked on the lock, the protocol changes so
	// far, and the switch rate this interval implies.
	report := func(name string) {
		resp, err := http.Get(srv.URL + "/debug/reactive")
		if err != nil {
			panic(err)
		}
		defer resp.Body.Close()
		var rep reactivehttp.Report
		if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
			panic(err)
		}
		st := rep.Primitives["routes"]
		hs := rep.Primitives["hot"]
		fmt.Printf("%-31s readers=%-7v parked=%-2d switches=%d (%.1f/s) hot-map=%v items=%d fresh=%d stale=%d\n",
			name, st.Readers.Mode, st.Waiters, st.Switches+st.Readers.Switches, st.SwitchRate, hs.Mode,
			processed.Load(), fresh.Load(), degraded.Load())
	}
	report("startup")

	// Phase 1: rare, quick config updates — essentially every lookup beats
	// its deadline, and a reader that meets a writer polls it out.
	for i := 0; i < 50; i++ {
		rw.Lock()
		table[i%64]++
		rw.Unlock()
		publish()
		time.Sleep(time.Millisecond)
	}
	report("quick updates")

	// Phase 2: slow bulk rebuilds hold the write lock past the per-item
	// deadline and the polling budget — lookups degrade to the snapshot
	// instead of stalling, and the readers that meet a rebuild park until
	// its release (the last rebuild is scraped mid-hold to count them).
	for i := 0; i < 20; i++ {
		rw.Lock()
		for k := range table { // simulate an expensive rebuild
			table[k] = (table[k] + 1) % 7
		}
		time.Sleep(2 * time.Millisecond) // long hold
		if i == 19 {
			report("slow bulk updates (mid-hold)")
		}
		rw.Unlock()
		publish()
		time.Sleep(time.Millisecond)
	}

	// Phase 3: the pipeline drains; config updates continue against an
	// idle table. Writer drains that find no reader walk a climbed
	// registration protocol back toward the one shared counter.
	close(stop)
	wg.Wait()
	for i := 0; i < 200; i++ {
		rw.Lock()
		table[i%64]++
		rw.Unlock()
	}
	publish()
	report("updates on a drained pipeline")
}
