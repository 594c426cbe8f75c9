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
// quantity. nativeRows is the one list of native rows and runNative
// the one runner, for a local A/B (-bench=Native -count=10 into
// benchstat). Whether a primitive got slower is decided by
// benchmark/run.sh's paired runs.
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
// the adoptable reactive library against its stdlib baseline. Every row
// is an entry of nativeRows, and runNative is the one runner under all
// five BenchmarkNative<Prim> functions.

func BenchmarkNativeMutex(b *testing.B)   { runNative(b, "Mutex") }
func BenchmarkNativeCounter(b *testing.B) { runNative(b, "Counter") }
func BenchmarkNativeFetchOp(b *testing.B) { runNative(b, "FetchOp") }
func BenchmarkNativeRWMutex(b *testing.B) { runNative(b, "RWMutex") }
func BenchmarkNativeMap(b *testing.B)     { runNative(b, "Map") }

// An iter drives a row's loop: a serial round for b.N iterations, a
// parallel one for as long as RunParallel's PB hands them out. A body
// counts its own iterations and asks it.next(i) before the ith (from 0);
// next inlines, so neither loop pays an indirect call per iteration.
type iter struct {
	pb *testing.PB
	n  int
}

func (it iter) next(i int) bool {
	if it.pb != nil {
		return it.pb.Next()
	}
	return i < it.n
}

// A loop is a row's per-goroutine loop body: its locals are that
// goroutine's mix state.
type loop func(it iter)

// A statser is a reactive primitive whose Stats a row reports.
type statser interface{ Stats() reactive.Stats }

// A nativeRow is BenchmarkNative<prim>/<name>. par 0 is a serial b.N
// loop; k runs RunParallel at SetParallelism(k). procs is the least
// GOMAXPROCS the row runs at. build makes the row's primitive and
// returns its loop and, for a reactive row, the primitive (nil for a
// standard-library baseline).
type nativeRow struct {
	prim, name string
	par, procs int
	build      func() (loop, statser)
}

// prepare raises GOMAXPROCS to the row's procs and then builds the row,
// so whatever the primitive sizes at construction (a shard array, the
// epoch kernel's per-P cells) sees the procs it runs at. restore undoes
// the raise.
func (r nativeRow) prepare() (l loop, p statser, restore func()) {
	restore = func() {}
	if prev := runtime.GOMAXPROCS(0); prev < r.procs {
		runtime.GOMAXPROCS(r.procs)
		restore = func() { runtime.GOMAXPROCS(prev) }
	}
	l, p = r.build()
	return l, p, restore
}

// runNative runs prim's rows in table order. Every b.N round builds its
// own primitive, so no round inherits another's detected mode. A reactive
// row reports the mode its primitive ended in (its reactive.Mode: 0 spin,
// 1 park, 2 cas, 3 sharded, 4 combining, 5 epoch, 6 locked) and the
// switches it committed; RWMutex's are its reader registration engine's.
func runNative(b *testing.B, prim string) {
	for _, r := range nativeRows {
		if r.prim != prim {
			continue
		}
		b.Run(r.name, func(b *testing.B) {
			l, p, restore := r.prepare()
			defer restore()
			b.ResetTimer()
			if r.par == 0 {
				l(iter{n: b.N})
			} else {
				b.SetParallelism(r.par)
				b.RunParallel(func(pb *testing.PB) { l(iter{pb: pb}) })
			}
			if p == nil {
				return
			}
			s := p.Stats()
			mode, switches := s.Mode, s.Switches
			if s.Readers != nil {
				mode, switches = s.Readers.Mode, s.Readers.Switches
			}
			b.ReportMetric(float64(mode), "mode")
			b.ReportMetric(float64(switches), "switches")
		})
	}
}

// nativeRows is the one list of native rows. Forced rows pin a protocol
// with WithInitialMode (WithInitialReaderMode for RWMutex's registration)
// so its fast path is measured on any host; the *-congestion rows carry
// policy.Congestion and must track their policy-free counterparts.
var nativeRows = []nativeRow{
	{"Mutex", "uncontended/reactive", 0, 0, mutexLock()},
	{"Mutex", "uncontended/sync.Mutex", 0, 0, syncMutexLock},
	// An uncontended Lock never calls Suboptimal and the policy's
	// Quiescent state elides the Optimal bookkeeping, so this row must
	// track plain uncontended/reactive.
	{"Mutex", "uncontended-congestion/reactive", 0, 0, withCongestion(mutexLock)},
	// LockCtx(Background) is the same zero-allocation fast path as Lock.
	{"Mutex", "lockctx-uncontended/reactive", 0, 0, func() (loop, statser) {
		m, ctx := reactive.New(), context.Background()
		return func(it iter) {
			for i := 0; it.next(i); i++ {
				if m.LockCtx(ctx) != nil {
					panic("uncontended LockCtx failed")
				}
				m.Unlock()
			}
		}, m
	}},
	{"Mutex", "contended/reactive", 1, 0, mutexLock()},
	{"Mutex", "contended/sync.Mutex", 1, 0, syncMutexLock},
	// Cancellation churn: every eighth acquisition is a short TryLockFor
	// that may expire mid-wait, keeping the waiter queue's
	// handoff-or-abandon path on the measured trajectory.
	{"Mutex", "cancel-churn/reactive", 1, 0, func() (loop, statser) {
		m := reactive.New(reactive.WithPollIters(4)) // park quickly
		return func(it iter) {
			for i := 0; it.next(i); i++ {
				if i%8 == 7 {
					if m.TryLockFor(50 * time.Microsecond) {
						m.Unlock()
					}
				} else {
					m.Lock()
					m.Unlock()
				}
			}
		}, m
	}},

	{"Counter", "uncontended/reactive", 0, 0, counterAdd()},
	{"Counter", "uncontended/atomic.Int64", 0, 0, atomicAdd},
	{"Counter", "contended/reactive", 1, 0, counterAdd()},
	{"Counter", "contended/atomic.Int64", 1, 0, atomicAdd},
	{"Counter", "mixed-read/reactive", 1, 0, counterMixed()},
	{"Counter", "mixed-read/atomic.Int64", 1, 0, atomicMixed},
	{"Counter", "mixed-read-cas-forced/reactive", 1, 0, counterMixed(pinned(reactive.ModeCAS)...)},
	{"Counter", "mixed-read-sharded-forced/reactive", 1, 0, counterMixed(pinned(reactive.ModeSharded)...)},
	{"Counter", "mixed-read-combining-forced/reactive", 1, 0, counterMixed(pinned(reactive.ModeCombining)...)},
	// FetchOp's pair of the same names, on the Counter's nil-op (plain
	// atomic add) path.
	{"Counter", "sharded-forced/reactive", 1, 0, counterAdd(reactive.WithInitialMode(reactive.ModeSharded))},
	{"Counter", "sharded-forced-congestion/reactive", 1, 0, withCongestion(counterAdd, reactive.WithInitialMode(reactive.ModeSharded))},

	// Serial Applies are the CAS protocol's regime and parallel
	// write-only ones the sharded protocol's; mode shows the crossover.
	{"FetchOp", "cas-regime/reactive", 0, 0, fetchOpApply()},
	{"FetchOp", "cas-regime/atomic.Int64", 0, 0, atomicAdd},
	{"FetchOp", "sharded-regime/reactive", 1, 0, fetchOpApply()},
	{"FetchOp", "sharded-regime/atomic.Int64", 1, 0, atomicAdd},
	// Combining is constructible but never detected into, and loses
	// mixed-read to sharded.
	{"FetchOp", "mixed-read/reactive", 1, 0, fetchOpMixed()},
	{"FetchOp", "mixed-read/atomic.Int64", 1, 0, atomicMixed},
	{"FetchOp", "mixed-read-cas-forced/reactive", 1, 0, fetchOpMixed(pinned(reactive.ModeCAS)...)},
	{"FetchOp", "mixed-read-sharded-forced/reactive", 1, 0, fetchOpMixed(pinned(reactive.ModeSharded)...)},
	// The mixed-read mix on forced combining; the name lacks the
	// mixed-read- prefix so that benchstat keeps pairing the row.
	{"FetchOp", "combining-forced/reactive", 1, 0, fetchOpMixed(pinned(reactive.ModeCombining)...)},
	// A running max fed operands almost always below it: nearly every
	// Apply is absorbed and should cost a load (test-before-write).
	{"FetchOp", "max-saturated/reactive", 1, 0, func() (loop, statser) {
		f := reactive.NewFetchOp(func(a, x int64) int64 { return max(a, x) }, math.MinInt64)
		return saturated(f.Apply), f
	}},
	{"FetchOp", "max-saturated/atomic-cas-max", 1, 0, func() (loop, statser) {
		am := new(atomic.Int64)
		am.Store(math.MinInt64)
		return saturated(func(x int64) {
			for {
				old := am.Load()
				if x <= old || am.CompareAndSwap(old, x) {
					return
				}
			}
		}), nil
	}},
	// Apply-only sharded traffic generates no scale-down votes, so these
	// rows are mode-stable on any host and the congestion row prices
	// exactly the cost of carrying the policy on the per-P fast path.
	{"FetchOp", "sharded-forced/reactive", 1, 0, fetchOpApply(reactive.WithInitialMode(reactive.ModeSharded))},
	{"FetchOp", "sharded-forced-congestion/reactive", 1, 0, withCongestion(fetchOpApply, reactive.WithInitialMode(reactive.ModeSharded))},

	{"RWMutex", "read-uncontended/reactive", 0, 0, rwRead()},
	{"RWMutex", "read-uncontended/sync.RWMutex", 0, 0, syncRWRead},
	// WithPolicy governs only the writer mutex; registration keeps its
	// own detection, and the RLock fast path must not pay for the policy.
	{"RWMutex", "read-uncontended-congestion/reactive", 0, 0, withCongestion(rwRead)},
	{"RWMutex", "read-contended/reactive", 1, 0, rwRead()},
	{"RWMutex", "read-contended/sync.RWMutex", 1, 0, syncRWRead},
	{"RWMutex", "read-parallel-4x/reactive", 4, 0, rwRead()},
	{"RWMutex", "read-parallel-4x/sync.RWMutex", 4, 0, syncRWRead},
	// One write in 128 keeps writer drains in the loop. One in 64 is
	// the benchmark's read-mostly cell, where each drain is a
	// registration detection event; the forced rows hold each
	// cell-based registration mode, which detection alone would leave.
	{"RWMutex", "read-mostly/reactive", 1, 0, rwReadMostly(128)},
	{"RWMutex", "read-mostly/sync.RWMutex", 1, 0, syncRWReadMostly(128)},
	{"RWMutex", "read-mostly-64/reactive", 1, 0, rwReadMostly(64)},
	{"RWMutex", "read-mostly-64-sharded-forced/reactive", 1, 0, rwReadMostly(64, rwPinned(reactive.ModeSharded)...)},
	{"RWMutex", "read-mostly-64-epoch-forced/reactive", 1, 0, rwReadMostly(64, rwPinned(reactive.ModeEpoch)...)},
	{"RWMutex", "read-mostly-64/sync.RWMutex", 1, 0, syncRWReadMostly(64)},
	{"RWMutex", "read-sharded-forced/reactive", 1, 0, rwRead(reactive.WithInitialReaderMode(reactive.ModeSharded))},
	// An epoch RLock publishes only a per-P stamp and loads one gate word
	// it never stores to: a read with zero shared-cacheline writes.
	// Reader-only traffic runs no grace period, so the row is mode-stable.
	{"RWMutex", "read-epoch-forced/reactive", 1, 0, rwRead(reactive.WithInitialReaderMode(reactive.ModeEpoch))},
	{"RWMutex", "read-epoch-forced-congestion/reactive", 1, 0, withCongestion(rwRead, reactive.WithInitialReaderMode(reactive.ModeEpoch))},

	// The map's lookup path in each protocol against sync.Map and a
	// mutex-guarded map, over a warm table. The limits pin each protocol
	// (a huge SpinFailLimit blocks promotion, a huge EmptyLimit
	// demotion), so a row is one protocol's read path, not a mode mix.
	{"Map", "get-locked/reactive", 0, 0, mapGet(reactive.WithSpinFailLimit(1 << 30))},
	{"Map", "get-sharded-forced/reactive", 0, 0, mapGet(pinned(reactive.ModeSharded)...)},
	{"Map", "get-epoch-forced/reactive", 0, 0, mapGet(reactive.WithInitialMode(reactive.ModeEpoch), reactive.WithEmptyLimit(1<<30))},
	{"Map", "get/sync.Map", 0, 0, syncMapLoad},
	{"Map", "get/mutex-map", 0, 0, mutexMapLoad},
	// Pure readers at 4-way parallelism on at least 4 Ps, so the locked
	// protocol's contention is scheduling-real on any host: the epoch
	// row's lookup (per-P stamp, no shared-cacheline write, no lock) is
	// the one a single lock word cannot approach, the map's reason to
	// climb the chain.
	{"Map", "read-4x-locked/reactive", 4, 4, mapGet(reactive.WithSpinFailLimit(1 << 30))},
	{"Map", "read-4x-sharded-forced/reactive", 4, 4, mapGet(pinned(reactive.ModeSharded)...)},
	{"Map", "read-4x-epoch-forced/reactive", 4, 4, mapGet(reactive.WithInitialMode(reactive.ModeEpoch), reactive.WithEmptyLimit(1<<30))},
	{"Map", "read-4x/sync.Map", 4, 4, syncMapLoad},
	{"Map", "read-4x/mutex-map", 4, 4, mutexMapLoad},
	// A 95/5 Get/Put mix on at least 2 Ps whose Puts all overwrite warm
	// keys: the epoch row's Put is one store into the key's value cell,
	// with no lock and no grace period, so the mix stays near its
	// pure-Get row instead of paying a grace period per Put.
	{"Map", "mix-95-5/reactive", 1, 2, mapMix()},
	{"Map", "mix-95-5-locked-forced/reactive", 1, 2, mapMix(pinned(reactive.ModeLocked)...)},
	{"Map", "mix-95-5-sharded-forced/reactive", 1, 2, mapMix(pinned(reactive.ModeSharded)...)},
	{"Map", "mix-95-5-epoch-forced/reactive", 1, 2, mapMix(pinned(reactive.ModeEpoch)...)},
	{"Map", "mix-95-5/sync.Map", 1, 2, syncMapMix},
	// The benchmark's oversubscribed-writes map mix: 50 % Put, 1 %
	// Delete, the rest Get, over the warm keys at 4 goroutines per P. A
	// delete and the Put that re-inserts its key are each one CAS on the
	// key's value cell in the epoch mode, so the mix never changes the
	// table, or waits a grace period, once the map has reached it.
	{"Map", "churn-50-1/reactive", 4, 0, mapChurn()},
	{"Map", "churn-50-1/locked-forced", 4, 0, mapChurn(pinned(reactive.ModeLocked)...)},
	{"Map", "churn-50-1/sharded-forced", 4, 0, mapChurn(pinned(reactive.ModeSharded)...)},
	{"Map", "churn-50-1/epoch-forced", 4, 0, mapChurn(pinned(reactive.ModeEpoch)...)},
	{"Map", "churn-50-1/rwmutex-map", 4, 0, rwMapChurn},
	{"Map", "churn-50-1/sync.Map", 4, 0, syncMapChurn},
}

// mixedRead is the mixed-read mix: update(1) on every iteration and a
// reconciling read on every 64th.
func mixedRead(update func(int64), read func() int64) loop {
	return func(it iter) {
		for i := 0; it.next(i); i++ {
			update(1)
			if i%64 == 63 {
				read()
			}
		}
	}
}

// saturated applies a per-goroutine LCG's high bits, mostly below a
// running max.
func saturated(apply func(x int64)) loop {
	return func(it iter) {
		r := uint64(1)
		for i := 0; it.next(i); i++ {
			r = r*6364136223846793005 + 1442695040888963407
			apply(int64(r >> 40))
		}
	}
}

// pinned holds protocol m for the whole measurement: detection still
// counts its votes, but no streak reaches these limits.
func pinned(m reactive.Mode) []reactive.Option {
	return []reactive.Option{reactive.WithInitialMode(m),
		reactive.WithSpinFailLimit(1 << 30), reactive.WithEmptyLimit(1 << 30)}
}

// rwPinned holds an RWMutex's reader registration in m, as pinned holds
// a primitive's mode (its writer mutex stays in spin).
func rwPinned(m reactive.Mode) []reactive.Option {
	return []reactive.Option{reactive.WithInitialReaderMode(m),
		reactive.WithSpinFailLimit(1 << 30), reactive.WithEmptyLimit(1 << 30)}
}

// withCongestion is row(opts...) with a fresh policy.Congestion added
// in each build, since a policy holds its primitive's estimator state.
func withCongestion(row func(...reactive.Option) func() (loop, statser), opts ...reactive.Option) func() (loop, statser) {
	return func() (loop, statser) {
		return row(append(opts[:len(opts):len(opts)], reactive.WithPolicy(policy.NewCongestion()))...)()
	}
}

func mutexLock(opts ...reactive.Option) func() (loop, statser) {
	return func() (loop, statser) {
		m := reactive.New(opts...)
		return func(it iter) {
			for i := 0; it.next(i); i++ {
				m.Lock()
				m.Unlock()
			}
		}, m
	}
}

func syncMutexLock() (loop, statser) {
	m := new(sync.Mutex)
	return func(it iter) {
		for i := 0; it.next(i); i++ {
			m.Lock()
			m.Unlock()
		}
	}, nil
}

func counterAdd(opts ...reactive.Option) func() (loop, statser) {
	return func() (loop, statser) {
		c := reactive.NewCounter(opts...)
		return func(it iter) {
			for i := 0; it.next(i); i++ {
				c.Add(1)
			}
		}, c
	}
}

func counterMixed(opts ...reactive.Option) func() (loop, statser) {
	return func() (loop, statser) {
		c := reactive.NewCounter(opts...)
		return mixedRead(c.Add, c.Load), c
	}
}

func atomicAdd() (loop, statser) {
	c := new(atomic.Int64)
	return func(it iter) {
		for i := 0; it.next(i); i++ {
			c.Add(1)
		}
	}, nil
}

func atomicMixed() (loop, statser) {
	c := new(atomic.Int64)
	return mixedRead(func(d int64) { c.Add(d) }, c.Load), nil
}

func addOp(a, x int64) int64 { return a + x }

func fetchOpApply(opts ...reactive.Option) func() (loop, statser) {
	return func() (loop, statser) {
		f := reactive.NewFetchOp(addOp, 0, opts...)
		return func(it iter) {
			for i := 0; it.next(i); i++ {
				f.Apply(1)
			}
		}, f
	}
}

func fetchOpMixed(opts ...reactive.Option) func() (loop, statser) {
	return func() (loop, statser) {
		f := reactive.NewFetchOp(addOp, 0, opts...)
		return mixedRead(f.Apply, f.Value), f
	}
}

func rwRead(opts ...reactive.Option) func() (loop, statser) {
	return func() (loop, statser) {
		rw := reactive.NewRWMutex(opts...)
		return func(it iter) {
			for i := 0; it.next(i); i++ {
				rw.RLock()
				rw.RUnlock()
			}
		}, rw
	}
}

func syncRWRead() (loop, statser) {
	rw := new(sync.RWMutex)
	return func(it iter) {
		for i := 0; it.next(i); i++ {
			rw.RLock()
			rw.RUnlock()
		}
	}, nil
}

// rwReadMostly reads under RLock and writes once every period ops. The
// period is a power of two, so picking the write is a mask, not a
// division.
func rwReadMostly(period int, opts ...reactive.Option) func() (loop, statser) {
	mask := period - 1
	return func() (loop, statser) {
		rw := reactive.NewRWMutex(opts...)
		return func(it iter) {
			for i := 0; it.next(i); i++ {
				if i&mask == mask {
					rw.Lock()
					rw.Unlock()
				} else {
					rw.RLock()
					rw.RUnlock()
				}
			}
		}, rw
	}
}

// syncRWReadMostly is rwReadMostly over sync.RWMutex, spelled out so
// neither row pays an interface call the other does not.
func syncRWReadMostly(period int) func() (loop, statser) {
	mask := period - 1
	return func() (loop, statser) {
		rw := new(sync.RWMutex)
		return func(it iter) {
			for i := 0; it.next(i); i++ {
				if i&mask == mask {
					rw.Lock()
					rw.Unlock()
				} else {
					rw.RLock()
					rw.RUnlock()
				}
			}
		}, nil
	}
}

// mapKeys is the warm table every Map row reads: a goroutine's ith
// iteration reads key i % mapKeys.
const mapKeys = 128

func mapGet(opts ...reactive.Option) func() (loop, statser) {
	return func() (loop, statser) {
		m := newMap(opts...)
		return func(it iter) {
			for i := 0; it.next(i); i++ {
				m.Get(uint64(i) % mapKeys)
			}
		}, m
	}
}

// newMap is a Map warmed with every key of mapKeys.
func newMap(opts ...reactive.Option) *reactive.Map[uint64, uint64] {
	m := reactive.NewMap[uint64, uint64](opts...)
	for k := uint64(0); k < mapKeys; k++ {
		m.Put(k, k)
	}
	return m
}

// mapMix is the overwrite mix: every 20th iteration Puts, the rest Get.
func mapMix(opts ...reactive.Option) func() (loop, statser) {
	return func() (loop, statser) {
		m := newMap(opts...)
		return func(it iter) {
			for i := 0; it.next(i); i++ {
				k := uint64(i) % mapKeys
				if i%20 == 19 {
					m.Put(k, uint64(i))
				} else {
					m.Get(k)
				}
			}
		}, m
	}
}

func syncMapMix() (loop, statser) {
	m := newSyncMap()
	return func(it iter) {
		for i := 0; it.next(i); i++ {
			k := uint64(i) % mapKeys
			if i%20 == 19 {
				m.Store(k, uint64(i))
			} else {
				m.Load(k)
			}
		}
	}, nil
}

// churn is the churn mix's loop: a per-goroutine LCG's high bits pick
// the op (out of 100: 50 Puts, 1 Delete, 49 Gets) and the key.
func churn(get func(k uint64), put func(k, v uint64), del func(k uint64)) loop {
	return func(it iter) {
		r := uint64(1)
		for i := 0; it.next(i); i++ {
			r = r*6364136223846793005 + 1442695040888963407
			k := (r >> 40) % mapKeys
			switch op := (r >> 20) % 100; {
			case op < 50:
				put(k, uint64(i))
			case op < 51:
				del(k)
			default:
				get(k)
			}
		}
	}
}

func mapChurn(opts ...reactive.Option) func() (loop, statser) {
	return func() (loop, statser) {
		m := newMap(opts...)
		return churn(func(k uint64) { m.Get(k) }, m.Put, m.Delete), m
	}
}

func rwMapChurn() (loop, statser) {
	m := make(map[uint64]uint64, mapKeys)
	for k := uint64(0); k < mapKeys; k++ {
		m[k] = k
	}
	mu := new(sync.RWMutex)
	return churn(func(k uint64) {
		mu.RLock()
		_ = m[k]
		mu.RUnlock()
	}, func(k, v uint64) {
		mu.Lock()
		m[k] = v
		mu.Unlock()
	}, func(k uint64) {
		mu.Lock()
		delete(m, k)
		mu.Unlock()
	}), nil
}

func syncMapChurn() (loop, statser) {
	m := newSyncMap()
	return churn(func(k uint64) { m.Load(k) }, func(k, v uint64) { m.Store(k, v) }, func(k uint64) { m.Delete(k) }), nil
}

// newSyncMap is a sync.Map warmed with every key of mapKeys.
func newSyncMap() *sync.Map {
	m := new(sync.Map)
	for k := uint64(0); k < mapKeys; k++ {
		m.Store(k, k)
	}
	return m
}

func syncMapLoad() (loop, statser) {
	m := newSyncMap()
	return func(it iter) {
		for i := 0; it.next(i); i++ {
			m.Load(uint64(i) % mapKeys)
		}
	}, nil
}

func mutexMapLoad() (loop, statser) {
	m := make(map[uint64]uint64, mapKeys)
	for k := uint64(0); k < mapKeys; k++ {
		m[k] = k
	}
	mu := new(sync.Mutex)
	return func(it iter) {
		for i := 0; it.next(i); i++ {
			mu.Lock()
			_ = m[uint64(i)%mapKeys]
			mu.Unlock()
		}
	}, nil
}
