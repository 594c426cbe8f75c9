package reactive_test

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/reactive"
	"repro/reactive/policy"
)

// ExampleMutex shows the drop-in sync.Mutex replacement: the zero value
// is ready to use, and Stats reports which protocol the lock selected.
func ExampleMutex() {
	var mu reactive.Mutex
	balance := 0

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				mu.Lock()
				balance++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	fmt.Println(balance)
	// Output: 8000
}

// ExampleNew configures a Mutex through the Options API: custom detection
// thresholds, or a switching policy from the reactive/policy package in
// place of the built-in streak detection.
func ExampleNew() {
	mu := reactive.New(
		reactive.WithSpinFailLimit(2), // switch to parking after 2 contended acquisitions
		reactive.WithEmptyLimit(16),   // and back after 16 uncontended unlocks
		reactive.WithPollIters(40),    // poll 40 iterations before parking (Lpoll)
	)
	mu.Lock()
	mu.Unlock()

	competitive := reactive.New(
		reactive.WithPolicy(policy.NewCompetitive(3 * reactive.ResidualCheapHigh)),
	)
	competitive.Lock()
	competitive.Unlock()

	fmt.Println(mu.Stats().Mode, competitive.Stats().Mode)
	// Output: spin spin
}

// ExampleMutex_LockCtx shows cancellation-aware acquisition: LockCtx
// waits like Lock but gives up with ctx.Err() when the context ends, so
// a request handler can bound how long it blocks on a contended lock and
// degrade instead of hanging. Lock is simply LockCtx with
// context.Background(), at the same (zero-allocation) fast-path cost.
func ExampleMutex_LockCtx() {
	var mu reactive.Mutex
	mu.Lock() // another owner holds the lock...

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := mu.LockCtx(ctx); err != nil {
		fmt.Println("degraded:", err) // ...so the bounded attempt times out
	}

	mu.Unlock()
	if err := mu.LockCtx(context.Background()); err == nil {
		fmt.Println("acquired after release")
		mu.Unlock()
	}
	// Output:
	// degraded: context deadline exceeded
	// acquired after release
}

// ExampleCounter shows the adaptive fetch-and-add counter: a single CAS
// word at low contention, per-processor sharded cells under high
// contention, reconciled by Load.
func ExampleCounter() {
	var hits reactive.Counter

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				hits.Add(1)
			}
		}()
	}
	wg.Wait()

	fmt.Println(hits.Load())
	// Output: 8000
}

// ExampleFetchOp shows the generic reactive fetch-and-op: any
// associative, commutative operation with an identity element gets the
// same three-protocol adaptivity as Counter (its add-only
// specialization) — a single CAS word uncontended, per-processor sharded
// cells under update contention, batched combining when heavy updates
// meet frequent reads. Here: a concurrent peak (running max) tracker.
func ExampleFetchOp() {
	peak := reactive.NewFetchOp(func(a, b int64) int64 {
		if a > b {
			return a
		}
		return b
	}, math.MinInt64)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				peak.Apply(int64(g*1000 + i))
			}
		}()
	}
	wg.Wait()

	fmt.Println(peak.Value())
	// Output: 7999
}

// ExampleStats_Sub shows the rate-conversion idiom: poll Stats() on an
// interval, Sub the previous snapshot, and read the monotonic fields as
// "per interval" rates. Here a counter starts in its sharded protocol,
// the idle single-goroutine workload drives it back down to the CAS
// word, and the delta reports exactly that one protocol change.
func ExampleStats_Sub() {
	counter := reactive.NewCounter(reactive.WithInitialMode(reactive.ModeSharded))
	prev := counter.Stats() // earlier poll

	for counter.Stats().Mode != reactive.ModeCAS {
		counter.Add(1)
		counter.Load() // idle reconciling reads vote the protocol back down
	}

	delta := counter.Stats().Sub(prev) // later poll, as a delta
	fmt.Printf("mode=%v switches+%d\n", delta.Mode, delta.Switches)
	// Output: mode=cas switches+1
}

// ExampleRWMutex shows the adaptive reader/writer lock. A reader that
// meets a writer waits two-phase: it polls through the budget
// (WithPollIters), which covers a short writer hold, and parks when the
// hold outlasts it. Reader *registration* adapts across three protocols
// (Stats().Readers):
// a centralized CAS word when readers are few, BRAVO-style sharded per-P
// slots under read contention, and per-P epoch stamps under sustained
// read saturation — where a reader writes no shared cache line at all
// and writers absorb the cost as a grace-period sweep. Detection walks
// the chain automatically; WithInitialReaderMode pins a stage directly.
func ExampleRWMutex() {
	rw := reactive.NewRWMutex(reactive.WithPollIters(32))
	config := map[string]string{"mode": "fast"}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				rw.RLock()
				_ = config["mode"]
				rw.RUnlock()
			}
		}()
	}
	rw.Lock()
	config["mode"] = "safe"
	rw.Unlock()
	wg.Wait()

	fmt.Println(config["mode"])
	// Output: safe
}

// ExampleMap shows the adaptive hash map walking its protocol chain
// under forced initial modes: one locked table for cheap uncontended
// use, per-shard locks under mixed contention, and a published
// immutable index for read-mostly saturation — where a lookup writes no
// shared cache line, a Put or Delete of a known key is one CAS on the
// key's value cell, and an insert of a fresh key pays a republish plus a
// grace period.
// Detection walks the chain automatically; WithInitialMode
// starts at a stage directly.
func ExampleMap() {
	for _, mode := range []reactive.Mode{
		reactive.ModeLocked, reactive.ModeSharded, reactive.ModeEpoch,
	} {
		m := reactive.NewMap[string, int](reactive.WithInitialMode(mode))
		m.Put("requests", 1)
		m.Put("errors", 0)
		if n, ok := m.Get("requests"); ok {
			m.Put("requests", n+41)
		}
		m.Delete("errors")

		v, _ := m.Get("requests")
		fmt.Printf("%s: requests=%d len=%d\n", m.Stats().Mode, v, m.Len())
	}
	// Output:
	// locked: requests=42 len=1
	// sharded: requests=42 len=1
	// epoch: requests=42 len=1
}
