// Package loadsvc is the service-scale load harness behind cmd/loadgen:
// an in-process RPC-shaped service assembled entirely from the public
// reactive primitives, a deterministic scenario/plan generator, and an
// open-loop executor that drives the service at fixed arrival rates and
// reports tail-latency quantiles.
//
// The service is deliberately the workload the paper's primitives are
// for: every request bumps a hit counter (reactive.Counter), reads
// route through an adaptive hash map under a per-request GetCtx
// deadline and degrade to an atomically-published stale snapshot when
// the deadline expires (reactive.Map — the routing table IS the
// adaptive data structure, walking locked ↔ sharded ↔ epoch as the
// read/write mix shifts), writes append to a commit journal under
// Mutex.LockCtx before installing the new routing entry, and every
// completed request folds its latency into a max-aggregating
// reactive.FetchOp. All four primitives are named in a
// reactivehttp.Registry, so the executor scrapes their per-scenario
// Stats.Sub deltas through the /debug/reactive endpoint exactly the way
// a production scraper would.
//
// The executor is open-loop (arrivals are scheduled by the plan, not by
// request completion), so queueing delay under overload is measured
// rather than absorbed — the methodological difference from the
// closed-loop ns/op benchmarks is discussed in DESIGN.md §7.
package loadsvc

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync/atomic"

	"repro/reactive"
	"repro/reactive/reactivehttp"
)

// TableKeys is the routing-table key space. Small enough that snapshot
// publication is cheap, large enough that per-key contention is rare —
// contention in the harness comes from the map's protocols, not from
// one hot key.
const TableKeys = 256

// snapshotEvery is the write-path snapshot publication cadence: every
// snapshotEvery-th Put republishes the stale-read snapshot (Rebuild
// always republishes). The fallback data a degraded read serves is
// therefore at most snapshotEvery writes old.
const snapshotEvery = 16

// Service is the in-process RPC-shaped service the load harness drives.
// All four public reactive primitives are load-bearing: hits on every
// request, routes on every read and write, journal on every write, peak
// on every completed request.
type Service struct {
	routes  *reactive.Map[uint64, uint64] // the routing table; adaptive end to end
	journal *reactive.Mutex               // serializes the commit journal (write path)
	hits    *reactive.Counter             // total requests accepted
	peak    *reactive.FetchOp             // max-aggregated request latency (ns)

	snap   atomic.Pointer[map[uint64]uint64] // last published immutable snapshot
	logLen int64                             // guarded by journal: committed journal entries, the snapshot cadence

	reg *reactivehttp.Registry
}

// NewService builds a Service with a fully populated routing table, a
// published snapshot, and all four primitives registered for telemetry
// under the names "router", "journal", "hits", and "peak".
func NewService() *Service { return NewServiceFor(0) }

// NewServiceFor builds a Service whose routing map is pinned to protocol
// mode when that is nonzero (ModeLocked, ModeSharded, or ModeEpoch), so a
// scenario measures that protocol whatever the load would promote or
// demote it to. The pin is the benchmark's forcing: the initial mode plus
// detection limits no run reaches, which the map's writer mutex inherits.
// With mode 0 the map is fully adaptive.
func NewServiceFor(mode reactive.Mode) *Service {
	var ropts []reactive.Option
	if mode != 0 {
		const never = 1 << 30
		ropts = append(ropts, reactive.WithInitialMode(mode),
			reactive.WithSpinFailLimit(never), reactive.WithEmptyLimit(never))
	}
	s := &Service{
		routes:  reactive.NewMap[uint64, uint64](ropts...),
		journal: reactive.New(),
		hits:    reactive.NewCounter(),
		peak: reactive.NewFetchOp(func(a, b int64) int64 {
			if a > b {
				return a
			}
			return b
		}, math.MinInt64),
		reg: &reactivehttp.Registry{},
	}
	for k := uint64(0); k < TableKeys; k++ {
		s.routes.Put(k, k*k)
	}
	s.publish()
	s.reg.Register("router", s.routes)
	s.reg.Register("journal", s.journal)
	s.reg.Register("hits", s.hits)
	s.reg.Register("peak", s.peak)
	return s
}

// Registry exposes the service's named primitives for telemetry export.
func (s *Service) Registry() *reactivehttp.Registry { return s.reg }

// RouterStats exposes the routing map's extended gauges (mode, shards,
// table version, journal depth) for reports and tests.
func (s *Service) RouterStats() reactive.MapStats { return s.routes.MapStats() }

// publish copies the routing table into a fresh immutable snapshot for
// the degraded-read path. The copy is a weakly consistent Range — the
// snapshot is advertised as stale data, so tearing against concurrent
// writes is within contract.
func (s *Service) publish() {
	c := make(map[uint64]uint64, TableKeys)
	s.routes.Range(func(k, v uint64) bool {
		c[k] = v
		return true
	})
	s.snap.Store(&c)
}

// GetResult is a read's outcome: the routed value and whether it was
// served from the live table or the stale snapshot.
type GetResult struct {
	Val   uint64
	Stale bool
}

// Get routes one read. The lookup runs with the request's context; a
// deadline expiry while the map's current protocol would block (the
// locked mode's writer lock, a sharded mode's shard word) degrades to
// the last published snapshot (stale routing beats no routing), while
// an outright cancellation — the client has gone away — aborts the
// request with ctx.Err(). In the epoch mode the lookup reads the
// map's cell table without blocking, so degraded reads vanish — exactly
// the property the map's read-mostly protocol exists for. work models
// the request's service time in spin iterations.
func (s *Service) Get(ctx context.Context, key uint64, work uint32) (GetResult, error) {
	s.hits.Add(1)
	v, _, err := s.routes.GetCtx(ctx, key%TableKeys)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			v := (*s.snap.Load())[key%TableKeys]
			spinWork(work)
			return GetResult{Val: v, Stale: true}, nil
		}
		return GetResult{}, err
	}
	spinWork(work)
	return GetResult{Val: v}, nil
}

// Put routes one write: append to the commit journal under the journal
// mutex (the Mutex.LockCtx write path), then install the new routing
// entry through the map's cancellable write path. Either acquisition
// gives up with ctx.Err() when the request's context ends first.
func (s *Service) Put(ctx context.Context, key, val uint64, work uint32) error {
	s.hits.Add(1)
	if err := s.journal.LockCtx(ctx); err != nil {
		return err
	}
	s.logLen++
	republish := s.logLen%snapshotEvery == 0
	spinWork(work / 2)
	s.journal.Unlock()

	if err := s.routes.PutCtx(ctx, key%TableKeys, val); err != nil {
		return err
	}
	spinWork(work)
	if republish {
		s.publish()
	}
	return nil
}

// Rebuild recomputes the whole routing table — the slow bulk update.
// Each entry goes through the map's cancellable write path with the
// rebuild's service time spread between entries, so the burst holds the
// write side busy long enough that concurrent reads blow their
// deadlines in the blocking modes (and sail through in the epoch mode,
// where every entry overwrites a present key: one CAS on its value
// cell, with no lock and no grace period) — then republishes the
// snapshot.
func (s *Service) Rebuild(ctx context.Context, gen uint64, work uint32) error {
	s.hits.Add(1)
	chunk := work / TableKeys
	for k := uint64(0); k < TableKeys; k++ {
		if err := s.routes.PutCtx(ctx, k, k*k+gen); err != nil {
			return err
		}
		spinWork(chunk)
		if k%32 == 31 {
			runtime.Gosched()
		}
	}
	s.publish()
	return nil
}

// RecordLatency folds one completed request's latency into the
// max-aggregating FetchOp — the aggregation path every request's
// completion contends on.
func (s *Service) RecordLatency(ns int64) { s.peak.Apply(ns) }

// PeakLatency reconciles and returns the maximum latency recorded so
// far, or 0 when nothing completed yet.
func (s *Service) PeakLatency() int64 {
	v := s.peak.Value()
	if v == math.MinInt64 {
		return 0
	}
	return v
}

// Hits reconciles and returns the total requests accepted.
func (s *Service) Hits() int64 { return s.hits.Load() }

// JournalLen returns the committed journal length (test hook; takes the
// journal mutex).
func (s *Service) JournalLen() int64 {
	s.journal.Lock()
	n := s.logLen
	s.journal.Unlock()
	return n
}

// spinSink defeats dead-code elimination of spinWork's loop.
var spinSink atomic.Uint64

// spinWork burns roughly iters cycles of CPU as synthetic service time.
// A xorshift step per iteration keeps the loop data-dependent so the
// compiler cannot collapse it. The result reaches spinSink only when it
// is 0, which a xorshift step never makes of a nonzero word: the
// compiler cannot prove that, so the loop stays, and no client ever
// stores to the sink's shared line, so the service time stays private.
func spinWork(iters uint32) {
	x := uint64(iters) | 1
	for i := uint32(0); i < iters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	if x == 0 {
		spinSink.Store(x)
	}
}
