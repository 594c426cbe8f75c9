// Package constructs provides the higher-level synchronization types the
// thesis's waiting-algorithm experiments exercise (Section 4.6.1): futures
// and J-structures (producer-consumer, built on full/empty bits), barriers,
// mutexes, and counting networks. Every construct is parameterized by a
// *waiting.Algorithm so the experiments can swap always-spin, always-block,
// and two-phase waiting without touching the benchmark code.
package constructs

import (
	"repro/internal/memsys"
	"repro/internal/threads"
	"repro/internal/waiting"
)

// cell is one word with a full/empty bit plus the threads blocked on it:
// the producer-consumer synchronization under both futures and
// J-structures.
type cell struct {
	addr memsys.Addr
	q    threads.WaitQueue
}

// fill writes the value, sets the full bit, and wakes blocked consumers.
func (c *cell) fill(t *threads.Thread, v uint64) {
	t.WriteFull(c.addr, v)
	c.q.WakeAll(t)
}

// await waits (with alg) until the cell is full and returns its value. The
// poll is a read of the full/empty-tagged word, which caches until the
// producer's write invalidates it.
func (c *cell) await(t *threads.Thread, alg *waiting.Algorithm) uint64 {
	alg.Wait(t, func() bool {
		_, full := t.ReadFE(c.addr)
		return full
	}, &c.q)
	v, _ := t.ReadFE(c.addr)
	return v
}

// Future is a single-assignment cell: the producer-consumer
// synchronization of futures in Mul-T (Section 4.4.3). Multiple consumers
// may touch it; one producer resolves it.
type Future struct{ c cell }

// NewFuture allocates a future homed on node home.
func NewFuture(mem *memsys.System, home int) *Future {
	f := &Future{cell{addr: mem.Alloc(home, 1)}}
	mem.SetEmpty(f.c.addr)
	return f
}

// Resolve fills the future.
func (f *Future) Resolve(t *threads.Thread, v uint64) { f.c.fill(t, v) }

// Touch waits (with alg) until the future is resolved and returns its
// value.
func (f *Future) Touch(t *threads.Thread, alg *waiting.Algorithm) uint64 { return f.c.await(t, alg) }

// JStructure is an array of single-assignment elements with full/empty
// bits (I-structure-like; Section 4.6.1). Readers of empty elements wait.
type JStructure struct{ cells []cell }

// NewJStructure allocates n elements striped across the machine's nodes.
func NewJStructure(mem *memsys.System, n int) *JStructure {
	j := &JStructure{cells: make([]cell, n)}
	for i, a := range mem.AllocStriped(n) {
		j.cells[i].addr = a
		mem.SetEmpty(a)
	}
	return j
}

// Write fills element i and wakes its waiting readers.
func (j *JStructure) Write(t *threads.Thread, i int, v uint64) { j.cells[i].fill(t, v) }

// Read waits until element i is full and returns it.
func (j *JStructure) Read(t *threads.Thread, i int, alg *waiting.Algorithm) uint64 {
	return j.cells[i].await(t, alg)
}

// Barrier is a centralized phase-counting barrier: arrivals fetch&add a
// counter; the last arrival advances the phase word (invalidating pollers'
// cached copies) and wakes blocked waiters.
type Barrier struct {
	n     int
	count memsys.Addr
	phase memsys.Addr
	q     threads.WaitQueue
}

// NewBarrier builds a barrier for n participants, homed on node home.
func NewBarrier(mem *memsys.System, home int, n int) *Barrier {
	return &Barrier{
		n:     n,
		count: mem.Alloc(home, 1),
		phase: mem.Alloc(home, 1),
	}
}

// Wait blocks until all n participants have arrived.
func (b *Barrier) Wait(t *threads.Thread, alg *waiting.Algorithm) {
	p := t.Read(b.phase)
	pos := t.FetchAndAdd(b.count, 1)
	if pos == uint64(b.n-1) {
		t.Write(b.count, 0)
		t.Write(b.phase, p+1)
		b.q.WakeAll(t)
		return
	}
	alg.Wait(t, func() bool { return t.Read(b.phase) != p }, &b.q)
}

// Mutex is a test-and-set mutual-exclusion lock whose waiting is delegated
// to a waiting algorithm (lock waiters are not queued — the mutex model of
// Section 4.4.3's analysis).
type Mutex struct {
	flag memsys.Addr
	q    threads.WaitQueue
}

// NewMutex allocates a mutex homed on node home.
func NewMutex(mem *memsys.System, home int) *Mutex {
	return &Mutex{flag: mem.Alloc(home, 1)}
}

// Lock acquires the mutex, waiting with alg while it is held.
func (m *Mutex) Lock(t *threads.Thread, alg *waiting.Algorithm) {
	for {
		if t.TestAndSet(m.flag) == 0 {
			return
		}
		alg.Wait(t, func() bool { return t.Read(m.flag) == 0 }, &m.q)
	}
}

// Unlock releases the mutex and wakes one blocked waiter, if any.
func (m *Mutex) Unlock(t *threads.Thread) {
	t.Write(m.flag, 0)
	m.q.WakeOne(t)
}
