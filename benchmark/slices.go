package main

import (
	"sync"
	"time"
)

// The library's callers are goroutines that each wait for their own
// acquire, so every native measurement is a closed loop: g goroutines, each
// issuing its next operation when the previous one returns, zero think
// time. A slice is one fixed-length burst of that loop; a cell interleaves
// slices of the implementations it compares (reactive, static, reactive,
// ...) so host drift lands on all of them alike, and reports the median
// slice with its quartiles.

const (
	batchOps        = 256 // ops between deadline checks; divides streamLen
	batchTraceEvery = 16  // traced runs record a span for one batch in this many
)

// workFn is one goroutine's share of a slice: run operations until the
// deadline, return how many completed. wt is nil on untraced runs.
type workFn func(id int, deadline time.Time, wt *workerTrace) uint64

// runSlice runs work on g goroutines for about d. The wall time runs from
// the common start to the last goroutine's return, so aggregate ns/op is
// wall/ops whatever the goroutine count.
func runSlice(g int, d time.Duration, tr *tracer, work workFn) (ops uint64, wall time.Duration) {
	wts := tr.workers(g)
	counts := make([]uint64, g)
	ends := make([]time.Time, g)
	start := make(chan struct{})
	var deadline time.Time
	var wg sync.WaitGroup
	for id := 0; id < g; id++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var wt *workerTrace
			if wts != nil {
				wt = wts[id]
			}
			<-start
			counts[id] = work(id, deadline, wt)
			ends[id] = time.Now()
		}()
	}
	t0 := time.Now()
	deadline = t0.Add(d)
	close(start)
	wg.Wait()
	last := t0
	for id := range ends {
		ops += counts[id]
		if ends[id].After(last) {
			last = ends[id]
		}
	}
	tr.merge(wts)
	return ops, last.Sub(t0)
}

// batchFn runs the pre-drawn ops on behalf of goroutine id.
type batchFn func(id int, ops []uint32)

// batchLoop turns a batch function and the goroutines' op streams into a
// slice's work: cycle the stream a batch at a time until the deadline.
func batchLoop(streams [][]uint32, batch batchFn) workFn {
	return func(id int, deadline time.Time, wt *workerTrace) uint64 {
		s := streams[id]
		var n uint64
		for pos, nb := 0, 0; ; pos, nb = (pos+batchOps)%len(s), nb+1 {
			if wt != nil && nb%batchTraceEvery == 0 {
				t0 := time.Now()
				batch(id, s[pos:pos+batchOps])
				wt.add("prim.batch", t0, time.Now(), -1, 0)
			} else {
				batch(id, s[pos:pos+batchOps])
			}
			n += batchOps
			if !time.Now().Before(deadline) {
				return n
			}
		}
	}
}

// untilDeadline is a slice's work for operations that need no stream: run
// fn — "do n operations as goroutine id" — batch at a time until the
// deadline. batch is batchOps for nanosecond operations, a handful for
// microsecond ones.
func untilDeadline(batch int, fn func(id, n int)) workFn {
	return func(id int, deadline time.Time, _ *workerTrace) uint64 {
		var n uint64
		for {
			fn(id, batch)
			n += uint64(batch)
			if !time.Now().Before(deadline) {
				return n
			}
		}
	}
}

// nsPerOp is a slice's aggregate wall nanoseconds per operation.
func nsPerOp(ops uint64, wall time.Duration) float64 {
	if ops == 0 {
		return 0
	}
	return float64(wall.Nanoseconds()) / float64(ops)
}
