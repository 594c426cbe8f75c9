// Benchmark harness. BenchmarkExperiments has one sub-benchmark per
// registered experiment (see DESIGN.md's per-experiment index) and
// BenchmarkExperimentMatrix drives the whole registry through the
// parallel runner; their host ns/op measure only the simulator's speed.
// The reproduced quantity — simulated cycles — is in the tables the
// registry prints (reactsim, waitsim) and the golden digests pin, not
// here. Simulation runs are deterministic, so -benchtime 1x suffices.
//
// The BenchmarkNative* group measures package reactive against the
// standard library, and its host ns/op numbers ARE the measured
// quantity: it is the one list of native rows, for a local A/B
// (-bench=Native -count=10 into benchstat). Whether a primitive got
// slower is decided by benchmark/run.sh's paired runs.
package repro_test

import (
	"context"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/reactive"
	"repro/reactive/policy"
)

// BenchmarkExperimentMatrix runs every registered experiment at
// smoke scale across the bounded worker pool and reports matrix-level
// metrics.
func BenchmarkExperimentMatrix(b *testing.B) {
	sz := experiments.Tiny()
	specs := experiments.Default.Specs()
	var results []experiments.Result
	for i := 0; i < b.N; i++ {
		runner := experiments.Runner{Sizes: sz, Parallel: runtime.GOMAXPROCS(0)}
		results = runner.Run(specs)
	}
	if err := experiments.FirstErr(results); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(len(results)), "experiments")
}

// BenchmarkExperiments runs each registered experiment at Quick() sizes
// and its own ExperimentSeed, one sub-benchmark per spec — the registry
// is the one list of simulator cases, so -bench 'Experiments/<name>'
// times exactly the table reactsim/waitsim print and EXPERIMENTS.md
// documents.
func BenchmarkExperiments(b *testing.B) {
	for _, spec := range experiments.Default.Specs() {
		b.Run(spec.Name, func(b *testing.B) {
			runner := experiments.Runner{Sizes: experiments.Quick(), Parallel: 1}
			for i := 0; i < b.N; i++ {
				if err := experiments.FirstErr(runner.Run([]experiments.Spec{spec})); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Native primitives (package reactive vs the standard library) ---
//
// Unlike the simulator benchmarks above, these measure real host ns/op:
// the adoptable reactive library against its stdlib baseline, uncontended
// and contended, via testing.B's RunParallel harness.

func BenchmarkNativeMutex(b *testing.B) {
	b.Run("uncontended/reactive", func(b *testing.B) {
		var m reactive.Mutex
		for i := 0; i < b.N; i++ {
			m.Lock()
			m.Unlock()
		}
	})
	b.Run("uncontended/sync.Mutex", func(b *testing.B) {
		var m sync.Mutex
		for i := 0; i < b.N; i++ {
			m.Lock()
			m.Unlock()
		}
	})
	// Carrying the congestion policy must be nearly free on the cheap
	// path: an uncontended Lock never calls Suboptimal, and the policy's
	// Quiescent state lets the primitive elide the Optimal bookkeeping,
	// so this row must track plain uncontended/reactive.
	b.Run("uncontended-congestion/reactive", func(b *testing.B) {
		m := reactive.New(reactive.WithPolicy(policy.NewCongestion()))
		for i := 0; i < b.N; i++ {
			m.Lock()
			m.Unlock()
		}
	})
	// The context-aware wrapper must be free: LockCtx(Background) on an
	// uncontended mutex is the same zero-allocation fast path as Lock.
	b.Run("lockctx-uncontended/reactive", func(b *testing.B) {
		var m reactive.Mutex
		ctx := context.Background()
		for i := 0; i < b.N; i++ {
			if m.LockCtx(ctx) != nil {
				b.Fatal("uncontended LockCtx failed")
			}
			m.Unlock()
		}
	})
	b.Run("contended/reactive", func(b *testing.B) {
		var m reactive.Mutex
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				m.Lock()
				m.Unlock()
			}
		})
	})
	b.Run("contended/sync.Mutex", func(b *testing.B) {
		var m sync.Mutex
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				m.Lock()
				m.Unlock()
			}
		})
	})
	// Cancellation churn: contended lockers where every eighth
	// acquisition is a short TryLockFor that may expire mid-wait, so the
	// waiter-queue engine's handoff-or-abandon path (cancelled waiters
	// passing grants on) stays on the measured trajectory.
	b.Run("cancel-churn/reactive", func(b *testing.B) {
		m := reactive.New(reactive.WithPollIters(4)) // park quickly
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				if i++; i%8 == 0 {
					if m.TryLockFor(50 * time.Microsecond) {
						m.Unlock()
					}
				} else {
					m.Lock()
					m.Unlock()
				}
			}
		})
	})
}

func BenchmarkNativeCounter(b *testing.B) {
	b.Run("uncontended/reactive", func(b *testing.B) {
		var c reactive.Counter
		for i := 0; i < b.N; i++ {
			c.Add(1)
		}
	})
	b.Run("uncontended/atomic.Int64", func(b *testing.B) {
		var c atomic.Int64
		for i := 0; i < b.N; i++ {
			c.Add(1)
		}
	})
	b.Run("contended/reactive", func(b *testing.B) {
		var c reactive.Counter
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				c.Add(1)
			}
		})
	})
	b.Run("contended/atomic.Int64", func(b *testing.B) {
		var c atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				c.Add(1)
			}
		})
	})
	// Mixed-read: parallel Adds with a reconciling Load every 64 ops —
	// the default counter against atomic.Int64, then each protocol
	// forced (the limits keep detection from moving it), so the row a
	// default counter should be tracking is on the same page.
	dc := reactive.NewCounter()
	b.Run("mixed-read/reactive", mixedRead(dc.Add, dc.Load, dc.Stats))
	var ac atomic.Int64
	b.Run("mixed-read/atomic.Int64", mixedRead(func(d int64) { ac.Add(d) }, ac.Load, nil))
	for _, m := range []reactive.Mode{reactive.ModeCAS, reactive.ModeSharded, reactive.ModeCombining} {
		fc := reactive.NewCounter(reactive.WithInitialMode(m),
			reactive.WithSpinFailLimit(1<<30), reactive.WithEmptyLimit(1<<30))
		b.Run("mixed-read-"+m.String()+"-forced/reactive", mixedRead(fc.Add, fc.Load, fc.Stats))
	}
	// Write-only Adds on the forced sharded protocol, plain and carrying
	// policy.Congestion: BenchmarkNativeFetchOp's pair of the same names,
	// on the Counter's nil-op (plain atomic add) path.
	writeOnly := func(c *reactive.Counter) func(*testing.B) {
		return func(b *testing.B) {
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					c.Add(1)
				}
			})
			b.ReportMetric(float64(c.Stats().Mode), "endmode")
		}
	}
	b.Run("sharded-forced/reactive", writeOnly(reactive.NewCounter(
		reactive.WithInitialMode(reactive.ModeSharded))))
	b.Run("sharded-forced-congestion/reactive", writeOnly(reactive.NewCounter(
		reactive.WithInitialMode(reactive.ModeSharded), reactive.WithPolicy(policy.NewCongestion()))))
}

// mixedRead is the mixed-read workload of BenchmarkNativeCounter and
// BenchmarkNativeFetchOp: parallel goroutines each calling update(1) per
// op and read every 64th. With stats, the protocol the primitive ended
// in is reported as endmode (its reactive.Mode: 2 cas, 3 sharded,
// 4 combining).
func mixedRead(update func(int64), read func() int64, stats func() reactive.Stats) func(*testing.B) {
	return func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				update(1)
				if i++; i%64 == 0 {
					read()
				}
			}
		})
		if stats != nil {
			b.ReportMetric(float64(stats().Mode), "endmode")
		}
	}
}

// BenchmarkNativeFetchOp measures the fetch-op against hand-written
// atomics on four workloads: serial Applies (the CAS protocol's
// regime), parallel write-only Applies (the sharded protocol's regime),
// parallel Applies with a reconciling Value every 64 ops (mixed-read:
// the default accumulator beside each protocol forced — combining is
// constructible but never detected into, and loses this row to sharded),
// and a running max whose operands are mostly below it (max-saturated:
// what test-before-write is for). The endmode metric is the protocol
// the accumulator ended in (its reactive.Mode: 2 cas, 3 sharded,
// 4 combining), so a run shows the CAS ↔ sharded crossover.
func BenchmarkNativeFetchOp(b *testing.B) {
	add := func(a, x int64) int64 { return a + x }
	fopMixed := func(f *reactive.FetchOp) func(*testing.B) { return mixedRead(f.Apply, f.Value, f.Stats) }
	// forced holds a protocol for the whole measurement: detection still
	// counts its votes, but no streak reaches these limits.
	forced := func(m reactive.Mode) *reactive.FetchOp {
		return reactive.NewFetchOp(add, 0, reactive.WithInitialMode(m),
			reactive.WithSpinFailLimit(1<<30), reactive.WithEmptyLimit(1<<30))
	}
	b.Run("cas-regime/reactive", func(b *testing.B) {
		f := reactive.NewFetchOp(add, 0)
		for i := 0; i < b.N; i++ {
			f.Apply(1)
		}
		b.ReportMetric(float64(f.Stats().Mode), "endmode")
	})
	b.Run("cas-regime/atomic.Int64", func(b *testing.B) {
		var c atomic.Int64
		for i := 0; i < b.N; i++ {
			c.Add(1)
		}
	})
	b.Run("sharded-regime/reactive", func(b *testing.B) {
		f := reactive.NewFetchOp(add, 0)
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				f.Apply(1)
			}
		})
		b.ReportMetric(float64(f.Stats().Mode), "endmode")
	})
	b.Run("sharded-regime/atomic.Int64", func(b *testing.B) {
		var c atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				c.Add(1)
			}
		})
	})
	b.Run("mixed-read/reactive", fopMixed(reactive.NewFetchOp(add, 0)))
	var ai atomic.Int64
	b.Run("mixed-read/atomic.Int64", mixedRead(func(d int64) { ai.Add(d) }, ai.Load, nil))
	b.Run("mixed-read-cas-forced/reactive", fopMixed(forced(reactive.ModeCAS)))
	b.Run("mixed-read-sharded-forced/reactive", fopMixed(forced(reactive.ModeSharded)))
	// The mixed-read mix on forced combining; the row keeps the name it
	// has had since PR 4.
	b.Run("combining-forced/reactive", fopMixed(forced(reactive.ModeCombining)))
	// Max-saturated: a running max fed operands that are almost always
	// below it, so nearly every Apply is absorbed and should cost a load.
	saturated := func(apply func(x int64)) func(*testing.B) {
		return func(b *testing.B) {
			b.RunParallel(func(pb *testing.PB) {
				r := uint64(1)
				for pb.Next() {
					r = r*6364136223846793005 + 1442695040888963407
					apply(int64(r >> 40))
				}
			})
		}
	}
	maxOp := func(a, x int64) int64 {
		if x > a {
			return x
		}
		return a
	}
	mf := reactive.NewFetchOp(maxOp, math.MinInt64)
	b.Run("max-saturated/reactive", saturated(mf.Apply))
	var am atomic.Int64
	am.Store(math.MinInt64)
	b.Run("max-saturated/atomic-cas-max", saturated(func(x int64) {
		for {
			old := am.Load()
			if x <= old || am.CompareAndSwap(old, x) {
				return
			}
		}
	}))
	// Write-only Applies on the forced sharded protocol: the per-P fast
	// path is exercised even on hosts whose parallelism never triggers
	// detection.
	b.Run("sharded-forced/reactive", func(b *testing.B) {
		f := reactive.NewFetchOp(add, 0, reactive.WithInitialMode(reactive.ModeSharded))
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				f.Apply(1)
			}
		})
		b.ReportMetric(float64(f.Stats().Mode), "endmode")
	})
	// Congestion-policy variant of the forced sharded row: same fast
	// path, with policy.Congestion installed instead of the built-in
	// streak detection. Apply-only sharded traffic generates no
	// scale-down votes, so the row is mode-stable on any host and prices
	// exactly the cost of carrying the feedback-control policy (its
	// Quiescent elision included) on the per-P fast path.
	b.Run("sharded-forced-congestion/reactive", func(b *testing.B) {
		f := reactive.NewFetchOp(add, 0,
			reactive.WithInitialMode(reactive.ModeSharded),
			reactive.WithPolicy(policy.NewCongestion()))
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				f.Apply(1)
			}
		})
		b.ReportMetric(float64(f.Stats().Mode), "endmode")
	})
}

// BenchmarkNativeRWMutex measures the reactive reader/writer lock
// against sync.RWMutex. Beyond the original uncontended/contended
// pair, the read-heavy parallel-scaling variants exercise the regimes
// the BRAVO-style sharded reader registration targets: pure parallel
// reads (read-contended), oversubscribed parallel reads
// (read-parallel-4x, 4 goroutines per P), and a 1-in-128-writes mix
// (read-mostly) that keeps writer drains in the loop. The readermode
// metric records the registration protocol the lock settled in
// (2 = centralized CAS word, 3 = sharded per-P cells, 5 = epoch).
func BenchmarkNativeRWMutex(b *testing.B) {
	readerMode := func(b *testing.B, rw *reactive.RWMutex) {
		b.ReportMetric(float64(rw.Stats().Readers.Mode), "readermode")
	}
	b.Run("read-uncontended/reactive", func(b *testing.B) {
		var rw reactive.RWMutex
		for i := 0; i < b.N; i++ {
			rw.RLock()
			rw.RUnlock()
		}
		readerMode(b, &rw)
	})
	b.Run("read-uncontended/sync.RWMutex", func(b *testing.B) {
		var rw sync.RWMutex
		for i := 0; i < b.N; i++ {
			rw.RLock()
			rw.RUnlock()
		}
	})
	// Congestion policy on the writer mutex (WithPolicy governs only that
	// engine; registration keeps its own detection): the uncontended
	// RLock fast path must not pay for the installed policy.
	b.Run("read-uncontended-congestion/reactive", func(b *testing.B) {
		rw := reactive.NewRWMutex(reactive.WithPolicy(policy.NewCongestion()))
		for i := 0; i < b.N; i++ {
			rw.RLock()
			rw.RUnlock()
		}
		readerMode(b, rw)
	})
	b.Run("read-contended/reactive", func(b *testing.B) {
		var rw reactive.RWMutex
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				rw.RLock()
				rw.RUnlock()
			}
		})
		readerMode(b, &rw)
	})
	b.Run("read-contended/sync.RWMutex", func(b *testing.B) {
		var rw sync.RWMutex
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				rw.RLock()
				rw.RUnlock()
			}
		})
	})
	b.Run("read-parallel-4x/reactive", func(b *testing.B) {
		var rw reactive.RWMutex
		b.SetParallelism(4)
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				rw.RLock()
				rw.RUnlock()
			}
		})
		readerMode(b, &rw)
	})
	b.Run("read-parallel-4x/sync.RWMutex", func(b *testing.B) {
		var rw sync.RWMutex
		b.SetParallelism(4)
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				rw.RLock()
				rw.RUnlock()
			}
		})
	})
	b.Run("read-mostly/reactive", func(b *testing.B) {
		var rw reactive.RWMutex
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				if i++; i%128 == 0 {
					rw.Lock()
					rw.Unlock()
				} else {
					rw.RLock()
					rw.RUnlock()
				}
			}
		})
		readerMode(b, &rw)
	})
	b.Run("read-mostly/sync.RWMutex", func(b *testing.B) {
		var rw sync.RWMutex
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				if i++; i%128 == 0 {
					rw.Lock()
					rw.Unlock()
				} else {
					rw.RLock()
					rw.RUnlock()
				}
			}
		})
	})
	b.Run("read-sharded-forced/reactive", func(b *testing.B) {
		rw := reactive.NewRWMutex(reactive.WithInitialReaderMode(reactive.ModeSharded))
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				rw.RLock()
				rw.RUnlock()
			}
		})
		readerMode(b, rw)
	})
	// The epoch registration fast path: RLock publishes only a per-P
	// stamp and loads one shared gate word it never stores to, so this
	// row prices a read with zero shared-cacheline writes. Reader-only
	// traffic generates no grace periods, so the row is mode-stable on
	// any host.
	b.Run("read-epoch-forced/reactive", func(b *testing.B) {
		rw := reactive.NewRWMutex(reactive.WithInitialReaderMode(reactive.ModeEpoch))
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				rw.RLock()
				rw.RUnlock()
			}
		})
		readerMode(b, rw)
	})
	// Congestion-policy variant of the forced epoch row: WithPolicy
	// governs only the writer mutex, so the epoch read fast path must
	// not pay for the installed feedback-control policy.
	b.Run("read-epoch-forced-congestion/reactive", func(b *testing.B) {
		rw := reactive.NewRWMutex(reactive.WithInitialReaderMode(reactive.ModeEpoch),
			reactive.WithPolicy(policy.NewCongestion()))
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				rw.RLock()
				rw.RUnlock()
			}
		})
		readerMode(b, rw)
	})
}

// BenchmarkNativeMap prices the adaptive hash map's lookup path in each
// of its three protocols against sync.Map and a plain mutex-guarded map,
// over a warm 128-key table. The forcing options pin each protocol for
// the measurement (a huge SpinFailLimit blocks promotion, a huge
// EmptyLimit blocks demotion) so every row is one protocol's read path,
// not a mode mix. The read-4x rows run pure readers at 4-way
// parallelism (GOMAXPROCS is raised to 4 for the row on smaller hosts,
// so the parallelism is scheduling-real everywhere): the epoch row's
// published-table lookup (per-P stamp, no shared-cacheline write, no
// lock) is the row the locked protocol's single lock word cannot
// approach — the gap is the map's reason to climb the chain.
func BenchmarkNativeMap(b *testing.B) {
	const mapKeys = 128
	fill := func(m *reactive.Map[uint64, uint64]) *reactive.Map[uint64, uint64] {
		for k := uint64(0); k < mapKeys; k++ {
			m.Put(k, k)
		}
		return m
	}
	mapMode := func(b *testing.B, m *reactive.Map[uint64, uint64]) {
		b.ReportMetric(float64(m.Stats().Mode), "mapmode")
	}
	// run4x drives body from 4-way-parallel readers. On hosts with
	// GOMAXPROCS < 4 the procs are raised for the row's duration:
	// without real scheduling parallelism the locked protocol's
	// contention (the gap these rows exist to price) is invisible.
	run4x := func(b *testing.B, body func(pb *testing.PB)) {
		if prev := runtime.GOMAXPROCS(0); prev < 4 {
			runtime.GOMAXPROCS(4)
			defer runtime.GOMAXPROCS(prev)
		}
		b.SetParallelism(4)
		b.RunParallel(body)
	}

	b.Run("get-locked/reactive", func(b *testing.B) {
		m := fill(reactive.NewMap[uint64, uint64](reactive.WithSpinFailLimit(1 << 30)))
		for i := 0; i < b.N; i++ {
			m.Get(uint64(i) % mapKeys)
		}
		mapMode(b, m)
	})
	b.Run("get-sharded-forced/reactive", func(b *testing.B) {
		m := fill(reactive.NewMap[uint64, uint64](reactive.WithInitialMode(reactive.ModeSharded),
			reactive.WithSpinFailLimit(1<<30), reactive.WithEmptyLimit(1<<30)))
		for i := 0; i < b.N; i++ {
			m.Get(uint64(i) % mapKeys)
		}
		mapMode(b, m)
	})
	b.Run("get-epoch-forced/reactive", func(b *testing.B) {
		m := fill(reactive.NewMap[uint64, uint64](reactive.WithInitialMode(reactive.ModeEpoch),
			reactive.WithEmptyLimit(1<<30)))
		for i := 0; i < b.N; i++ {
			m.Get(uint64(i) % mapKeys)
		}
		mapMode(b, m)
	})
	b.Run("get/sync.Map", func(b *testing.B) {
		var m sync.Map
		for k := uint64(0); k < mapKeys; k++ {
			m.Store(k, k)
		}
		for i := 0; i < b.N; i++ {
			m.Load(uint64(i) % mapKeys)
		}
	})
	b.Run("get/mutex-map", func(b *testing.B) {
		m := make(map[uint64]uint64, mapKeys)
		for k := uint64(0); k < mapKeys; k++ {
			m[k] = k
		}
		var mu sync.Mutex
		for i := 0; i < b.N; i++ {
			mu.Lock()
			_ = m[uint64(i)%mapKeys]
			mu.Unlock()
		}
	})
	b.Run("read-4x-locked/reactive", func(b *testing.B) {
		m := fill(reactive.NewMap[uint64, uint64](reactive.WithSpinFailLimit(1 << 30)))
		run4x(b, func(pb *testing.PB) {
			i := uint64(0)
			for pb.Next() {
				m.Get(i % mapKeys)
				i++
			}
		})
		mapMode(b, m)
	})
	b.Run("read-4x-sharded-forced/reactive", func(b *testing.B) {
		m := fill(reactive.NewMap[uint64, uint64](reactive.WithInitialMode(reactive.ModeSharded),
			reactive.WithSpinFailLimit(1<<30), reactive.WithEmptyLimit(1<<30)))
		run4x(b, func(pb *testing.PB) {
			i := uint64(0)
			for pb.Next() {
				m.Get(i % mapKeys)
				i++
			}
		})
		mapMode(b, m)
	})
	b.Run("read-4x-epoch-forced/reactive", func(b *testing.B) {
		m := fill(reactive.NewMap[uint64, uint64](reactive.WithInitialMode(reactive.ModeEpoch),
			reactive.WithEmptyLimit(1<<30)))
		run4x(b, func(pb *testing.PB) {
			i := uint64(0)
			for pb.Next() {
				m.Get(i % mapKeys)
				i++
			}
		})
		mapMode(b, m)
	})
	b.Run("read-4x/sync.Map", func(b *testing.B) {
		var m sync.Map
		for k := uint64(0); k < mapKeys; k++ {
			m.Store(k, k)
		}
		run4x(b, func(pb *testing.PB) {
			i := uint64(0)
			for pb.Next() {
				m.Load(i % mapKeys)
				i++
			}
		})
	})
	b.Run("read-4x/mutex-map", func(b *testing.B) {
		m := make(map[uint64]uint64, mapKeys)
		for k := uint64(0); k < mapKeys; k++ {
			m[k] = k
		}
		var mu sync.Mutex
		run4x(b, func(pb *testing.PB) {
			i := uint64(0)
			for pb.Next() {
				mu.Lock()
				_ = m[i%mapKeys]
				mu.Unlock()
				i++
			}
		})
	})
}
