package experiments

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/reactive"
	"repro/reactive/policy"
)

// NativeResult is one wall-clock measurement of a native (non-simulated)
// synchronization primitive: the adoptable reactive library benchmarked
// against its standard-library baseline. Unlike the simulator experiments
// these numbers are host-dependent and non-deterministic; they are tracked
// alongside the deterministic matrix in bench_results.json so the library's
// trajectory is measured, not just the simulator's.
type NativeResult struct {
	// Name is primitive/workload/implementation, e.g.
	// "mutex/contended/reactive".
	Name       string  `json:"name"`
	Goroutines int     `json:"goroutines"`
	Ops        int     `json:"ops"`
	NsPerOp    float64 `json:"ns_per_op"`
}

// nativeOps is the per-measurement operation count: large enough to touch
// both protocols of every adaptive primitive, small enough for a CI smoke
// job.
const nativeOps = 100_000

// controlSink defeats dead-code elimination of the control/spin-loop row.
var controlSink atomic.Uint64

// measureNative times fn doing ops operations split across n goroutines.
func measureNative(name string, n int, fn func(per int)) NativeResult {
	per := nativeOps / n
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(per)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	ops := per * n
	return NativeResult{
		Name:       name,
		Goroutines: n,
		Ops:        ops,
		NsPerOp:    float64(elapsed.Nanoseconds()) / float64(ops),
	}
}

// NativePrimitives measures the reactive library's Mutex, Counter,
// RWMutex, and FetchOp against sync.Mutex, atomic.Int64, and
// sync.RWMutex, uncontended (one goroutine) and contended (2×GOMAXPROCS
// goroutines), plus a mixed update+read fetch-op workload (mixed-read)
// on the default accumulator and on each forced protocol.
func NativePrimitives() []NativeResult {
	contenders := 2 * runtime.GOMAXPROCS(0)
	if contenders < 2 {
		contenders = 2
	}
	var out []NativeResult
	for _, w := range []struct {
		name string
		n    int
	}{
		{"uncontended", 1},
		{"contended", contenders},
	} {
		var rm reactive.Mutex
		out = append(out, measureNative("mutex/"+w.name+"/reactive", w.n, func(per int) {
			for i := 0; i < per; i++ {
				rm.Lock()
				rm.Unlock()
			}
		}))
		var sm sync.Mutex
		out = append(out, measureNative("mutex/"+w.name+"/sync.Mutex", w.n, func(per int) {
			for i := 0; i < per; i++ {
				sm.Lock()
				sm.Unlock()
			}
		}))
		var rc reactive.Counter
		out = append(out, measureNative("counter/"+w.name+"/reactive", w.n, func(per int) {
			for i := 0; i < per; i++ {
				rc.Add(1)
			}
		}))
		var ai atomic.Int64
		out = append(out, measureNative("counter/"+w.name+"/atomic.Int64", w.n, func(per int) {
			for i := 0; i < per; i++ {
				ai.Add(1)
			}
		}))
		var rrw reactive.RWMutex
		out = append(out, measureNative("rwmutex/"+w.name+"/reactive", w.n, func(per int) {
			for i := 0; i < per; i++ {
				rrw.RLock()
				rrw.RUnlock()
			}
		}))
		var srw sync.RWMutex
		out = append(out, measureNative("rwmutex/"+w.name+"/sync.RWMutex", w.n, func(per int) {
			for i := 0; i < per; i++ {
				srw.RLock()
				srw.RUnlock()
			}
		}))
		rf := reactive.NewFetchOp(func(a, b int64) int64 { return a + b }, 0)
		out = append(out, measureNative("fetchop/"+w.name+"/reactive", w.n, func(per int) {
			for i := 0; i < per; i++ {
				rf.Apply(1)
			}
		}))
		var af atomic.Int64
		out = append(out, measureNative("fetchop/"+w.name+"/atomic.Int64", w.n, func(per int) {
			for i := 0; i < per; i++ {
				af.Add(1)
			}
		}))
	}
	// Context-aware acquisition rows. The uncontended LockCtx(Background)
	// row is the wrapper-cost regression gate (it must track the plain
	// mutex/uncontended row), and the cancel-churn row keeps the waiter
	// queue's handoff-or-abandon path — short TryLockFor attempts expiring
	// against contended handoffs — on the measured trajectory.
	var cm reactive.Mutex
	bg := context.Background()
	out = append(out, measureNative("mutex/lockctx-uncontended/reactive", 1, func(per int) {
		for i := 0; i < per; i++ {
			if cm.LockCtx(bg) == nil {
				cm.Unlock()
			}
		}
	}))
	churn := reactive.New(reactive.WithPollIters(4)) // park quickly
	out = append(out, measureNative("mutex/cancel-churn/reactive", contenders, func(per int) {
		for i := 0; i < per; i++ {
			if i%8 == 0 {
				if churn.TryLockFor(50 * time.Microsecond) {
					churn.Unlock()
				}
			} else {
				churn.Lock()
				churn.Unlock()
			}
		}
	}))
	// Forced-regime fast paths: primitives started in their scalable
	// protocols with WithInitialMode, so the sharded/combining fast
	// paths are measured even on hosts whose parallelism never triggers
	// detection (a GOMAXPROCS=1 CI runner leaves every adaptive
	// primitive in its cheap protocol). These rows are the regression
	// gate for the per-P affinity substrate: they go through pin →
	// per-P cell/slot → atomic op → unpin on every operation.
	sc := reactive.NewCounter(reactive.WithInitialMode(reactive.ModeSharded))
	out = append(out, measureNative("counter/sharded-forced/reactive", contenders, func(per int) {
		for i := 0; i < per; i++ {
			sc.Add(1)
		}
	}))
	sf := reactive.NewFetchOp(func(a, b int64) int64 { return a + b }, 0,
		reactive.WithInitialMode(reactive.ModeSharded))
	out = append(out, measureNative("fetchop/sharded-forced/reactive", contenders, func(per int) {
		for i := 0; i < per; i++ {
			sf.Apply(1)
		}
	}))
	// Mixed-read (an Apply per op, a reconciling Value every 64) on each
	// forced protocol; the huge limits keep detection from moving the
	// protocol mid-measurement (votes are still counted, so the
	// detection cost stays on the measured path). The default
	// accumulator's fetchop/mixed-read rows below should track the best
	// of these; combining is constructible but never detected into.
	for _, fm := range []struct {
		row  string
		mode reactive.Mode
	}{
		{"fetchop/mixed-read-cas-forced/reactive", reactive.ModeCAS},
		{"fetchop/mixed-read-sharded-forced/reactive", reactive.ModeSharded},
		{"fetchop/combining-forced/reactive", reactive.ModeCombining},
	} {
		ff := reactive.NewFetchOp(func(a, b int64) int64 { return a + b }, 0, reactive.WithInitialMode(fm.mode),
			reactive.WithSpinFailLimit(1<<30), reactive.WithEmptyLimit(1<<30))
		out = append(out, measureNative(fm.row, contenders, func(per int) {
			for i := 0; i < per; i++ {
				ff.Apply(1)
				if i%64 == 0 {
					ff.Value()
				}
			}
		}))
	}
	// Congestion-policy rows, one per primitive: the cheap paths
	// (uncontended Lock/RLock, where the policy's Quiescent state lets
	// the primitive elide its bookkeeping) and the forced sharded fast
	// paths with policy.Congestion installed in place of the streak
	// detection. Apply/Add-only sharded traffic generates no scale-down
	// votes, so the forced rows stay mode-stable on any host; any drift
	// against the policy-free counterparts is the price of carrying the
	// feedback-control policy.
	cgm := reactive.New(reactive.WithPolicy(policy.NewCongestion()))
	out = append(out, measureNative("mutex/uncontended-congestion/reactive", 1, func(per int) {
		for i := 0; i < per; i++ {
			cgm.Lock()
			cgm.Unlock()
		}
	}))
	cgrw := reactive.NewRWMutex(reactive.WithPolicy(policy.NewCongestion()))
	out = append(out, measureNative("rwmutex/read-uncontended-congestion/reactive", 1, func(per int) {
		for i := 0; i < per; i++ {
			cgrw.RLock()
			cgrw.RUnlock()
		}
	}))
	scc := reactive.NewCounter(reactive.WithInitialMode(reactive.ModeSharded),
		reactive.WithPolicy(policy.NewCongestion()))
	out = append(out, measureNative("counter/sharded-forced-congestion/reactive", contenders, func(per int) {
		for i := 0; i < per; i++ {
			scc.Add(1)
		}
	}))
	sfc := reactive.NewFetchOp(func(a, b int64) int64 { return a + b }, 0,
		reactive.WithInitialMode(reactive.ModeSharded),
		reactive.WithPolicy(policy.NewCongestion()))
	out = append(out, measureNative("fetchop/sharded-forced-congestion/reactive", contenders, func(per int) {
		for i := 0; i < per; i++ {
			sfc.Apply(1)
		}
	}))
	srrw := reactive.NewRWMutex(reactive.WithInitialMode(reactive.ModeSharded))
	out = append(out, measureNative("rwmutex/read-sharded-forced/reactive", contenders, func(per int) {
		for i := 0; i < per; i++ {
			srrw.RLock()
			srrw.RUnlock()
		}
	}))
	// Epoch-forced rows: the third registration protocol, whose read
	// side publishes only a per-P epoch stamp and *loads* one shared
	// gate word without ever storing to shared state. Read-only traffic
	// generates no grace periods, so the mode is stable mid-measurement
	// on any host; the congestion variant swaps the streak detection for
	// the feedback-control policy as the other -congestion rows do.
	erw := reactive.NewRWMutex(reactive.WithInitialReaderMode(reactive.ModeEpoch))
	out = append(out, measureNative("rwmutex/read-epoch-forced/reactive", contenders, func(per int) {
		for i := 0; i < per; i++ {
			erw.RLock()
			erw.RUnlock()
		}
	}))
	erwc := reactive.NewRWMutex(reactive.WithInitialReaderMode(reactive.ModeEpoch),
		reactive.WithPolicy(policy.NewCongestion()))
	out = append(out, measureNative("rwmutex/read-epoch-forced-congestion/reactive", contenders, func(per int) {
		for i := 0; i < per; i++ {
			erwc.RLock()
			erwc.RUnlock()
		}
	}))
	// Read-heavy parallel pressure with occasional writers: the regime
	// RWMutex's sharded reader registration targets (parallel RLocks
	// that would otherwise serialize on one centralized cache line,
	// with enough writer drains to keep the whole protocol honest).
	var rrw reactive.RWMutex
	out = append(out, measureNative("rwmutex/read-heavy/reactive", contenders, func(per int) {
		for i := 0; i < per; i++ {
			if i%128 == 127 {
				rrw.Lock()
				rrw.Unlock()
			} else {
				rrw.RLock()
				rrw.RUnlock()
			}
		}
	}))
	var srw sync.RWMutex
	out = append(out, measureNative("rwmutex/read-heavy/sync.RWMutex", contenders, func(per int) {
		for i := 0; i < per; i++ {
			if i%128 == 127 {
				srw.Lock()
				srw.Unlock()
			} else {
				srw.RLock()
				srw.RUnlock()
			}
		}
	}))
	// Adaptive map rows: lookups against a warm 128-key table in each of
	// the three protocols, against sync.Map and a plain mutex-guarded map.
	// The forcing options pin each protocol for the duration (a huge
	// SpinFailLimit blocks promotion, a huge EmptyLimit blocks demotion)
	// so every row measures one protocol's read path, not a mode mix.
	const mapKeys = 128
	fillMap := func(m *reactive.Map[uint64, uint64]) *reactive.Map[uint64, uint64] {
		for k := uint64(0); k < mapKeys; k++ {
			m.Put(k, k)
		}
		return m
	}
	lm := fillMap(reactive.NewMap[uint64, uint64](reactive.WithSpinFailLimit(1 << 30)))
	out = append(out, measureNative("map/get-locked/reactive", contenders, func(per int) {
		for i := 0; i < per; i++ {
			lm.Get(uint64(i) % mapKeys)
		}
	}))
	shm := fillMap(reactive.NewMap[uint64, uint64](reactive.WithInitialMode(reactive.ModeSharded),
		reactive.WithSpinFailLimit(1<<30), reactive.WithEmptyLimit(1<<30)))
	out = append(out, measureNative("map/get-sharded-forced/reactive", contenders, func(per int) {
		for i := 0; i < per; i++ {
			shm.Get(uint64(i) % mapKeys)
		}
	}))
	em := fillMap(reactive.NewMap[uint64, uint64](reactive.WithInitialMode(reactive.ModeEpoch),
		reactive.WithEmptyLimit(1<<30)))
	out = append(out, measureNative("map/get-epoch-forced/reactive", contenders, func(per int) {
		for i := 0; i < per; i++ {
			em.Get(uint64(i) % mapKeys)
		}
	}))
	var sym sync.Map
	for k := uint64(0); k < mapKeys; k++ {
		sym.Store(k, k)
	}
	out = append(out, measureNative("map/get/sync.Map", contenders, func(per int) {
		for i := 0; i < per; i++ {
			sym.Load(uint64(i) % mapKeys)
		}
	}))
	mum := make(map[uint64]uint64, mapKeys)
	for k := uint64(0); k < mapKeys; k++ {
		mum[k] = k
	}
	var mumLock sync.Mutex
	out = append(out, measureNative("map/get/mutex-map", contenders, func(per int) {
		for i := 0; i < per; i++ {
			mumLock.Lock()
			_ = mum[uint64(i)%mapKeys]
			mumLock.Unlock()
		}
	}))
	// Control rows: stdlib-only workloads whose cost cannot be changed by
	// anything in this repository. benchcmp reports them but never gates
	// them; with -normalize their drift ratio is divided out of the gated
	// rows, so a slower/faster CI host does not masquerade as a library
	// regression.
	out = append(out, measureNative("control/spin-loop", 1, func(per int) {
		x := uint64(1)
		for i := 0; i < per; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		controlSink.Store(x)
	}))
	var ctlMu sync.Mutex
	out = append(out, measureNative("control/sync.Mutex", contenders, func(per int) {
		for i := 0; i < per; i++ {
			ctlMu.Lock()
			ctlMu.Unlock()
		}
	}))
	var ctlAdd atomic.Int64
	out = append(out, measureNative("control/atomic.Int64", contenders, func(per int) {
		for i := 0; i < per; i++ {
			ctlAdd.Add(1)
		}
	}))
	// Mixed update+read pressure on the default accumulator: heavy
	// Applies with a reconciling Value every 64, where detection has to
	// settle between CAS and sharded.
	rf := reactive.NewFetchOp(func(a, b int64) int64 { return a + b }, 0)
	out = append(out, measureNative("fetchop/mixed-read/reactive", contenders, func(per int) {
		for i := 0; i < per; i++ {
			rf.Apply(1)
			if i%64 == 0 {
				rf.Value()
			}
		}
	}))
	var af atomic.Int64
	out = append(out, measureNative("fetchop/mixed-read/atomic.Int64", contenders, func(per int) {
		for i := 0; i < per; i++ {
			af.Add(1)
			if i%64 == 0 {
				af.Load()
			}
		}
	}))
	return out
}
