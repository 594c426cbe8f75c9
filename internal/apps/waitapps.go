package apps

import (
	"container/heap"

	"repro/internal/constructs"
	"repro/internal/threads"
	"repro/internal/waiting"
)

// The Chapter 4 benchmarks (Table 4.2). Each takes a scheduler, a waiting
// algorithm, and size parameters, runs to completion, and returns elapsed
// cycles. Producer-consumer benchmarks exhibit roughly exponential waiting
// times; barrier benchmarks roughly uniform; mutex benchmarks bimodal
// (Section 4.7.1) — the profiles are observable via the algorithms'
// Profiler hooks.

// runThreads runs n threads of body, thread t on processor t mod P, and
// returns the cycle the last one finished.
func runThreads(s *threads.Scheduler, n int, name string, body func(t int, th *threads.Thread)) Time {
	m := s.Machine()
	tr := &tracker{}
	for t := 0; t < n; t++ {
		s.Spawn(t%m.NumProcs(), 0, name, func(th *threads.Thread) {
			body(t, th)
			tr.done(th)
		})
	}
	return tr.run(m)
}

// expDelay draws an exponentially distributed delay with the given mean,
// capped at 20 means.
func expDelay(th *threads.Thread, mean Time) Time {
	d := Time(float64(mean) * th.Rand().ExpFloat64())
	if d > 20*mean {
		d = 20 * mean
	}
	return d
}

// JacobiJstr is the J-structure Jacobi relaxation: each thread computes a
// chunk of a 1-D grid per iteration and publishes its boundary elements
// through per-iteration J-structures; neighbors consume them
// (producer-consumer synchronization, Table 4.3's Jacobi-Jstr).
type JacobiJstr struct {
	Threads int
	Iters   int
	Grain   Time // compute per chunk per iteration (mean)
}

// Run executes the benchmark and returns elapsed cycles.
func (a *JacobiJstr) Run(s *threads.Scheduler, alg *waiting.Algorithm) Time {
	m := s.Machine()
	n := a.Threads
	// bounds[i] holds thread t's boundary pair for iteration i at
	// positions 2t (left) and 2t+1 (right).
	bounds := make([]*constructs.JStructure, a.Iters+1)
	for i := range bounds {
		bounds[i] = constructs.NewJStructure(m.Mem, 2*n)
	}
	return runThreads(s, n, "jacobi", func(t int, th *threads.Thread) {
		// Publish iteration-0 boundaries.
		bounds[0].Write(th, 2*t, uint64(t))
		bounds[0].Write(th, 2*t+1, uint64(t))
		for it := 1; it <= a.Iters; it++ {
			// Read neighbors' previous-iteration boundaries.
			var left, right uint64
			if t > 0 {
				left = bounds[it-1].Read(th, 2*(t-1)+1, alg)
			}
			if t < n-1 {
				right = bounds[it-1].Read(th, 2*(t+1), alg)
			}
			// Relax the chunk.
			th.Advance(a.Grain/2 + Time(th.Rand().Uint64n(uint64(a.Grain))))
			v := (left + right) / 2
			bounds[it].Write(th, 2*t, v)
			bounds[it].Write(th, 2*t+1, v)
		}
	})
}

// FutureTree is the future benchmark: a binary tree of producer threads,
// each resolving a future its parent touches (the Mul-T futures of
// Figure 4.7; exponential-ish waiting times).
type FutureTree struct {
	Depth int
	Grain Time
}

// Run executes the benchmark and returns elapsed cycles.
func (a *FutureTree) Run(s *threads.Scheduler, alg *waiting.Algorithm) Time {
	m := s.Machine()
	procs := m.NumProcs()
	tr := &tracker{}
	nextProc := 0
	var spawn func(parent *threads.Thread, depth int) *constructs.Future
	spawn = func(parent *threads.Thread, depth int) *constructs.Future {
		f := constructs.NewFuture(m.Mem, nextProc%procs)
		proc := nextProc % procs
		nextProc++
		body := func(th *threads.Thread) {
			var l, r *constructs.Future
			if depth > 0 {
				l = spawn(th, depth-1)
				r = spawn(th, depth-1)
			}
			th.Advance(a.Grain/2 + Time(th.Rand().Uint64n(uint64(a.Grain))))
			v := uint64(1)
			if l != nil {
				v += l.Touch(th, alg)
				v += r.Touch(th, alg)
			}
			f.Resolve(th, v)
		}
		if parent == nil {
			s.Spawn(proc, 0, "fut", body)
		} else {
			parent.SpawnChild(proc, "fut", body)
		}
		return f
	}
	root := spawn(nil, a.Depth)
	s.Spawn(procs-1, 0, "main", func(th *threads.Thread) {
		want := uint64(1)<<uint(a.Depth+1) - 1
		if got := root.Touch(th, alg); got != want {
			panic("future tree computed wrong value")
		}
		tr.done(th)
	})
	return tr.run(m)
}

// FutureStream is the producer-consumer benchmark where blocking pays off:
// the first half of the processors run dedicated producer threads that
// resolve streams of futures at exponentially distributed intervals
// (Poisson production — the restricted adversary of Section 4.4.3); each
// remaining processor runs a consumer thread plus an independent coworker
// thread. A spinning consumer starves its coworker; a blocking consumer
// lets it run. Pure spinning is live here because producers own their
// processors.
type FutureStream struct {
	Items int  // futures per producer stream
	Mean  Time // mean production interval (exponential)
	Work  Time // coworker compute per item
}

// Run executes the benchmark and returns elapsed cycles.
func (a *FutureStream) Run(s *threads.Scheduler, alg *waiting.Algorithm) Time {
	m := s.Machine()
	procs := m.NumProcs()
	pairs := procs / 2
	if pairs == 0 {
		panic("apps: FutureStream needs at least 2 processors")
	}
	tr := &tracker{}
	for i := 0; i < pairs; i++ {
		stream := make([]*constructs.Future, a.Items)
		for k := range stream {
			stream[k] = constructs.NewFuture(m.Mem, i)
		}
		prodProc, consProc := i, pairs+i
		s.Spawn(prodProc, 0, "producer", func(th *threads.Thread) {
			for k := 0; k < a.Items; k++ {
				th.Advance(expDelay(th, a.Mean))
				stream[k].Resolve(th, uint64(k))
			}
		})
		s.Spawn(consProc, 0, "consumer", func(th *threads.Thread) {
			for k := 0; k < a.Items; k++ {
				if got := stream[k].Touch(th, alg); got != uint64(k) {
					panic("future stream value mismatch")
				}
				th.Advance(60) // consume
			}
			tr.done(th)
		})
		s.Spawn(consProc, 0, "coworker", func(th *threads.Thread) {
			for k := 0; k < a.Items; k++ {
				th.Advance(a.Work)
				th.Yield()
			}
			tr.done(th)
		})
	}
	return tr.run(m)
}

// BarrierApp is the barrier benchmark skeleton shared by Jacobi-Bar and
// CGrad: per-iteration computation with per-thread imbalance, then a
// barrier (uniform-ish waiting times, Figures 4.8/4.9).
type BarrierApp struct {
	Threads int
	Iters   int
	Grain   Time // mean compute per iteration
	Skew    Time // uniform imbalance range
	// Barriers inserts extra barriers per iteration (CGrad uses 2).
	Barriers int
}

// Run executes the benchmark and returns elapsed cycles.
func (a *BarrierApp) Run(s *threads.Scheduler, alg *waiting.Algorithm) Time {
	m := s.Machine()
	nb := a.Barriers
	if nb == 0 {
		nb = 1
	}
	b := constructs.NewBarrier(m.Mem, 0, a.Threads)
	return runThreads(s, a.Threads, "bar", func(_ int, th *threads.Thread) {
		for it := 0; it < a.Iters; it++ {
			for k := 0; k < nb; k++ {
				th.Advance(a.Grain + Time(th.Rand().Uint64n(uint64(a.Skew)+1)))
				b.Wait(th, alg)
			}
		}
	})
}

// NewJacobiBar returns the Jacobi-Bar configuration.
func NewJacobiBar(threadsN, iters int) *BarrierApp {
	return &BarrierApp{Threads: threadsN, Iters: iters, Grain: 2500, Skew: 2500, Barriers: 1}
}

// NewCGrad returns the conjugate-gradient configuration: two barriers per
// iteration with moderate imbalance.
func NewCGrad(threadsN, iters int) *BarrierApp {
	return &BarrierApp{Threads: threadsN, Iters: iters, Grain: 1800, Skew: 1200, Barriers: 2}
}

// FibHeap is the mutex benchmark around a shared priority queue: threads
// repeatedly extract the minimum, "process the event" for an
// exponentially distributed time, and insert new items — the FibHeap
// workload of Figure 4.10 (bimodal mutex waiting times).
type FibHeap struct {
	Threads int
	Ops     int
	Mean    Time // mean processing per op
}

type intHeap []uint64

func (h intHeap) Len() int            { return len(h) }
func (h intHeap) Less(i, j int) bool  { return h[i] < h[j] }
func (h intHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *intHeap) Push(x interface{}) { *h = append(*h, x.(uint64)) }
func (h *intHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Run executes the benchmark and returns elapsed cycles.
func (a *FibHeap) Run(s *threads.Scheduler, alg *waiting.Algorithm) Time {
	m := s.Machine()
	mu := constructs.NewMutex(m.Mem, 0)
	h := &intHeap{}
	heap.Init(h)
	for i := 0; i < a.Threads; i++ {
		heap.Push(h, uint64(i)*100)
	}
	return runThreads(s, a.Threads, "fibheap", func(_ int, th *threads.Thread) {
		for op := 0; op < a.Ops; op++ {
			mu.Lock(th, alg)
			var key uint64
			if h.Len() > 0 {
				key = heap.Pop(h).(uint64)
			}
			th.Advance(Time(30 + th.Rand().Intn(40))) // heap manipulation
			heap.Push(h, key+uint64(th.Rand().Intn(500)))
			mu.Unlock(th)
			// Process the event.
			th.Advance(expDelay(th, a.Mean))
		}
	})
}

// MutexBench is the synthetic Mutex benchmark: lock, exponential critical
// section, unlock, exponential think time (Figure 4.10's Mutex workload).
type MutexBench struct {
	Threads int
	Ops     int
	CS      Time // mean critical-section length
	Think   Time // mean think time
}

// Run executes the benchmark and returns elapsed cycles.
func (a *MutexBench) Run(s *threads.Scheduler, alg *waiting.Algorithm) Time {
	m := s.Machine()
	mu := constructs.NewMutex(m.Mem, 0)
	return runThreads(s, a.Threads, "mutex", func(_ int, th *threads.Thread) {
		for op := 0; op < a.Ops; op++ {
			mu.Lock(th, alg)
			th.Advance(expDelay(th, a.CS))
			mu.Unlock(th)
			th.Advance(expDelay(th, a.Think))
		}
	})
}

// CountNet is the counting-network benchmark: threads repeatedly take
// values from a bitonic counting network whose balancers are mutex-
// protected (Figure 4.11; short, frequent critical sections).
type CountNet struct {
	Threads int
	Width   int
	Ops     int
}

// Run executes the benchmark and returns elapsed cycles.
func (a *CountNet) Run(s *threads.Scheduler, alg *waiting.Algorithm) Time {
	m := s.Machine()
	net := constructs.NewCountingNetwork(m.Mem, a.Width)
	return runThreads(s, a.Threads, "countnet", func(_ int, th *threads.Thread) {
		for op := 0; op < a.Ops; op++ {
			net.Next(th, alg)
			th.Advance(Time(50 + th.Rand().Intn(100)))
		}
	})
}
