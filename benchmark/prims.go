package main

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/reactive"
)

// A cell compares one reactive primitive with its static analogues under
// one op stream. Every implementation runs the same pre-drawn ops with the
// same bookkeeping and is checked the same way, so the ratio between them
// is the primitives' and not the harness's. The loops are written out per
// concrete type on purpose: a shared generic loop would call Lock through
// a dictionary and hide the inlined fast paths users actually get.

type impl struct {
	name  string
	batch batchFn
	check func() error          // cumulative output check; call only at quiescence
	stats func() reactive.Stats // nil for static analogues
	extra func() (g, q uint64)  // grace / quiet-grace counters where the primitive has them
}

type cell struct {
	prim    string
	streams [][]uint32
	impls   []*impl // impls[0] is the reactive primitive
}

// lane is one goroutine's private bookkeeping, padded to its own cache
// line so the bookkeeping adds no sharing of its own.
type lane struct {
	n   uint64 // ops (mutex), writes (rwmutex)
	sum int64  // counter: total added
	max int64  // fetchop: largest operand applied
	bad uint64 // observations that contradict the primitive's contract
	_   [4]uint64
}

func newLanes(g int) []lane {
	ls := make([]lane, g)
	for i := range ls {
		ls[i].max = math.MinInt64
	}
	return ls
}

// churn is the critical section's work: cs dependent xorshift steps.
func churn(x uint64, cs int) uint64 {
	x |= 1
	for i := 0; i < cs; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

// guarded is the data a lock protects; padded away from the lock word.
type guarded struct {
	_    [8]uint64
	a, b uint64
	x    uint64
	_    [8]uint64
}

// ---- Mutex: Lock, bump a word, cs steps of work, Unlock. ----

func mutexCell(seed uint64, g, cs int) *cell {
	c := &cell{prim: "mutex", streams: genStreams(seed, "mutex", g, mix{})}

	rm, rd, rl := reactive.New(), new(guarded), newLanes(g)
	c.impls = append(c.impls, &impl{
		name: "reactive",
		batch: func(id int, ops []uint32) {
			for range ops {
				rm.Lock()
				rd.a++
				rd.x = churn(rd.x, cs)
				rm.Unlock()
			}
			rl[id].n += uint64(len(ops))
		},
		check: func() error { return errors.Join(wordIs("mutex word", rd.a, rl), rm.CheckInvariants()) },
		stats: rm.Stats,
	})

	sm, sd, sl := new(sync.Mutex), new(guarded), newLanes(g)
	c.impls = append(c.impls, &impl{
		name: "sync.Mutex",
		batch: func(id int, ops []uint32) {
			for range ops {
				sm.Lock()
				sd.a++
				sd.x = churn(sd.x, cs)
				sm.Unlock()
			}
			sl[id].n += uint64(len(ops))
		},
		check: func() error { return wordIs("sync.Mutex word", sd.a, sl) },
	})
	return c
}

func wordIs(what string, got uint64, ls []lane) error {
	var want uint64
	for i := range ls {
		want += ls[i].n
	}
	if got != want {
		return fmt.Errorf("%s = %d, want %d", what, got, want)
	}
	return nil
}

// ---- RWMutex: writers keep a == b; readers must never see them differ. ----

func rwmutexCell(seed uint64, g int, m mix) *cell {
	c := &cell{prim: "rwmutex", streams: genStreams(seed, "rwmutex", g, m)}

	rm, rd, rl := reactive.NewRWMutex(), new(guarded), newLanes(g)
	c.impls = append(c.impls, &impl{
		name: "reactive",
		batch: func(id int, ops []uint32) {
			l := &rl[id]
			for _, op := range ops {
				if opKind(op) == opWrite {
					rm.Lock()
					rd.a++
					rd.b++
					rm.Unlock()
					l.n++
				} else {
					rm.RLock()
					if rd.a != rd.b {
						l.bad++
					}
					rm.RUnlock()
				}
			}
		},
		check: func() error {
			return errors.Join(wordIs("rwmutex word", rd.a, rl), noBad("rwmutex torn reads", rl), rm.CheckInvariants())
		},
		stats: rm.Stats,
		extra: func() (uint64, uint64) {
			if r := rm.Stats().Readers; r != nil {
				return r.Graces, r.QuietGraces
			}
			return 0, 0
		},
	})

	sm, sd, sl := new(sync.RWMutex), new(guarded), newLanes(g)
	c.impls = append(c.impls, &impl{
		name: "sync.RWMutex",
		batch: func(id int, ops []uint32) {
			l := &sl[id]
			for _, op := range ops {
				if opKind(op) == opWrite {
					sm.Lock()
					sd.a++
					sd.b++
					sm.Unlock()
					l.n++
				} else {
					sm.RLock()
					if sd.a != sd.b {
						l.bad++
					}
					sm.RUnlock()
				}
			}
		},
		check: func() error {
			return errors.Join(wordIs("sync.RWMutex word", sd.a, sl), noBad("sync.RWMutex torn reads", sl))
		},
	})
	return c
}

func noBad(what string, ls []lane) error {
	var bad uint64
	for i := range ls {
		bad += ls[i].bad
	}
	if bad != 0 {
		return fmt.Errorf("%s: %d", what, bad)
	}
	return nil
}

// ---- Counter: Add a drawn delta; opAux is a reconciling Load. ----

func counterCell(seed uint64, g int, m mix) *cell {
	c := &cell{prim: "counter", streams: genStreams(seed, "counter", g, m)}
	sumIs := func(what string, got int64, ls []lane) error {
		var want int64
		for i := range ls {
			want += ls[i].sum
		}
		if got != want {
			return fmt.Errorf("%s = %d, want %d", what, got, want)
		}
		return nil
	}

	rc, rl := reactive.NewCounter(), newLanes(g)
	c.impls = append(c.impls, &impl{
		name: "reactive",
		batch: func(id int, ops []uint32) {
			l := &rl[id]
			for _, op := range ops {
				if opKind(op) == opAux {
					if rc.Load() < l.sum {
						l.bad++ // a Load may not miss this goroutine's own adds
					}
					continue
				}
				d := int64(opArg(op)&7) + 1
				rc.Add(d)
				l.sum += d
			}
		},
		check: func() error {
			return errors.Join(sumIs("Counter.Load()", rc.Load(), rl), noBad("counter stale loads", rl), rc.CheckInvariants())
		},
		stats: rc.Stats,
	})

	sc, sl := new(atomic.Int64), newLanes(g)
	c.impls = append(c.impls, &impl{
		name: "atomic.Int64",
		batch: func(id int, ops []uint32) {
			l := &sl[id]
			for _, op := range ops {
				if opKind(op) == opAux {
					if sc.Load() < l.sum {
						l.bad++
					}
					continue
				}
				d := int64(opArg(op)&7) + 1
				sc.Add(d)
				l.sum += d
			}
		},
		check: func() error {
			return errors.Join(sumIs("atomic.Int64", sc.Load(), sl), noBad("atomic stale loads", sl))
		},
	})
	return c
}

// ---- FetchOp: fold a drawn operand under max; opAux is a Value. ----

func maxOp(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func fetchopCell(seed uint64, g int, m mix) *cell {
	c := &cell{prim: "fetchop", streams: genStreams(seed, "fetchop", g, m)}
	maxIs := func(what string, got int64, ls []lane) error {
		want := int64(math.MinInt64)
		for i := range ls {
			want = maxOp(want, ls[i].max)
		}
		if got != want {
			return fmt.Errorf("%s = %d, want %d", what, got, want)
		}
		return nil
	}

	rf, rl := reactive.NewFetchOp(maxOp, math.MinInt64), newLanes(g)
	c.impls = append(c.impls, &impl{
		name: "reactive",
		batch: func(id int, ops []uint32) {
			l := &rl[id]
			for _, op := range ops {
				if opKind(op) == opAux {
					if rf.Value() < l.max {
						l.bad++
					}
					continue
				}
				x := int64(opArg(op))
				rf.Apply(x)
				l.max = maxOp(l.max, x)
			}
		},
		check: func() error {
			return errors.Join(maxIs("FetchOp.Value()", rf.Value(), rl), noBad("fetchop stale values", rl), rf.CheckInvariants())
		},
		stats: rf.Stats,
	})

	sf, sl := new(atomic.Int64), newLanes(g)
	sf.Store(math.MinInt64)
	c.impls = append(c.impls, &impl{
		name: "atomic-cas-max",
		batch: func(id int, ops []uint32) {
			l := &sl[id]
			for _, op := range ops {
				if opKind(op) == opAux {
					if sf.Load() < l.max {
						l.bad++
					}
					continue
				}
				x := int64(opArg(op))
				for {
					old := sf.Load()
					if x <= old || sf.CompareAndSwap(old, x) {
						break
					}
				}
				l.max = maxOp(l.max, x)
			}
		},
		check: func() error {
			return errors.Join(maxIs("atomic max", sf.Load(), sl), noBad("atomic stale values", sl))
		},
	})
	return c
}

// ---- Map: Get any key; Put and Delete only this goroutine's own keys. ----

// mapKeys is the seeded key space, loadsvc's table size.
const mapKeys = 256

// kv is the map surface the cells compare.
type kv interface {
	get(k uint64) (uint64, bool)
	put(k, v uint64)
	del(k uint64)
	size() int
}

// mapLane tracks what its goroutine last wrote to each of its own keys:
// goroutine g owns the keys k with k%goroutines == g, so its last write
// to k is what the map must hold at quiescence.
type mapLane struct {
	own     []uint64
	last    []uint64
	present []bool
	seq     uint64
	bad     uint64
	_       [4]uint64
}

func newMapLanes(g int, m kv) []mapLane {
	ls := make([]mapLane, g)
	for k := uint64(0); k < mapKeys; k++ {
		m.put(k, k) // value = seq<<8 | key, seq 0
		l := &ls[k%uint64(g)]
		l.own = append(l.own, k)
		l.last = append(l.last, k)
		l.present = append(l.present, true)
	}
	return ls
}

func checkMap(what string, m kv, ls []mapLane) error {
	var errs []error
	live := 0
	for g := range ls {
		l := &ls[g]
		if l.bad != 0 {
			errs = append(errs, fmt.Errorf("%s: goroutine %d read %d values under the wrong key", what, g, l.bad))
		}
		for i, k := range l.own {
			v, ok := m.get(k)
			if ok != l.present[i] || (ok && v != l.last[i]) {
				errs = append(errs, fmt.Errorf("%s: key %d = (%d,%v), last write (%d,%v)", what, k, v, ok, l.last[i], l.present[i]))
			}
			if l.present[i] {
				live++
			}
		}
	}
	if n := m.size(); n != live {
		errs = append(errs, fmt.Errorf("%s: Len = %d, want %d", what, n, live))
	}
	return errors.Join(errs...)
}

type reactiveKV struct{ m *reactive.Map[uint64, uint64] }

func (r reactiveKV) get(k uint64) (uint64, bool) { return r.m.Get(k) }
func (r reactiveKV) put(k, v uint64)             { r.m.Put(k, v) }
func (r reactiveKV) del(k uint64)                { r.m.Delete(k) }
func (r reactiveKV) size() int                   { return r.m.Len() }

type syncMapKV struct{ m *sync.Map }

func (s syncMapKV) get(k uint64) (uint64, bool) {
	v, ok := s.m.Load(k)
	if !ok {
		return 0, false
	}
	return v.(uint64), true
}
func (s syncMapKV) put(k, v uint64) { s.m.Store(k, v) }
func (s syncMapKV) del(k uint64)    { s.m.Delete(k) }
func (s syncMapKV) size() (n int) {
	s.m.Range(func(any, any) bool { n++; return true })
	return n
}

type mutexMapKV struct {
	mu sync.Mutex
	m  map[uint64]uint64
}

func (s *mutexMapKV) get(k uint64) (uint64, bool) {
	s.mu.Lock()
	v, ok := s.m[k]
	s.mu.Unlock()
	return v, ok
}
func (s *mutexMapKV) put(k, v uint64) { s.mu.Lock(); s.m[k] = v; s.mu.Unlock() }
func (s *mutexMapKV) del(k uint64)    { s.mu.Lock(); delete(s.m, k); s.mu.Unlock() }
func (s *mutexMapKV) size() int       { s.mu.Lock(); defer s.mu.Unlock(); return len(s.m) }

type rwMapKV struct {
	mu sync.RWMutex
	m  map[uint64]uint64
}

func (s *rwMapKV) get(k uint64) (uint64, bool) {
	s.mu.RLock()
	v, ok := s.m[k]
	s.mu.RUnlock()
	return v, ok
}
func (s *rwMapKV) put(k, v uint64) { s.mu.Lock(); s.m[k] = v; s.mu.Unlock() }
func (s *rwMapKV) del(k uint64)    { s.mu.Lock(); delete(s.m, k); s.mu.Unlock() }
func (s *rwMapKV) size() int       { s.mu.RLock(); defer s.mu.RUnlock(); return len(s.m) }

// The lane's share of each op, small enough to inline into the loops below.

func (l *mapLane) saw(k, v uint64, ok bool) {
	if ok && v&0xff != k {
		l.bad++
	}
}

func (l *mapLane) nextPut(arg uint64) (k, v uint64) {
	i := arg % uint64(len(l.own))
	l.seq++
	k, v = l.own[i], l.seq<<8|l.own[i]
	l.last[i], l.present[i] = v, true
	return k, v
}

func (l *mapLane) nextDel(arg uint64) uint64 {
	i := arg % uint64(len(l.own))
	l.present[i] = false
	return l.own[i]
}

// mapImpl seeds m and wraps a batch loop over it. The loops are written
// out per concrete map type (a loop generic over kv calls Get through a
// dictionary and loses the inlining a user's direct call gets); what they
// share — op decoding and the lane's bookkeeping — is identical.
func mapImpl(name string, g int, m kv, loop func(ls []mapLane) batchFn) *impl {
	ls := newMapLanes(g, m)
	return &impl{name: name, batch: loop(ls), check: func() error { return checkMap(name+" map", m, ls) }}
}

func mapCell(seed uint64, g int, m mix) *cell {
	c := &cell{prim: "map", streams: genStreams(seed, "map", g, m)}

	rm := reactive.NewMap[uint64, uint64]()
	ri := mapImpl("reactive", g, reactiveKV{rm}, func(ls []mapLane) batchFn {
		return func(id int, ops []uint32) {
			l := &ls[id]
			for _, op := range ops {
				arg := uint64(opArg(op))
				switch opKind(op) {
				case opRead:
					k := arg % mapKeys
					v, ok := rm.Get(k)
					l.saw(k, v, ok)
				case opWrite:
					rm.Put(l.nextPut(arg))
				default:
					rm.Delete(l.nextDel(arg))
				}
			}
		}
	})
	inner := ri.check
	ri.check = func() error { return errors.Join(inner(), rm.CheckInvariants()) }
	ri.stats = rm.Stats
	ri.extra = func() (uint64, uint64) { s := rm.MapStats(); return s.Graces, s.QuietGraces }

	sm := new(sync.Map)
	si := mapImpl("sync.Map", g, syncMapKV{sm}, func(ls []mapLane) batchFn {
		return func(id int, ops []uint32) {
			l := &ls[id]
			for _, op := range ops {
				arg := uint64(opArg(op))
				switch opKind(op) {
				case opRead:
					k := arg % mapKeys
					if v, ok := sm.Load(k); ok {
						l.saw(k, v.(uint64), true)
					}
				case opWrite:
					sm.Store(l.nextPut(arg))
				default:
					sm.Delete(l.nextDel(arg))
				}
			}
		}
	})

	mm := &mutexMapKV{m: make(map[uint64]uint64, mapKeys)}
	mi := mapImpl("mutex+map", g, mm, func(ls []mapLane) batchFn {
		return func(id int, ops []uint32) {
			l := &ls[id]
			for _, op := range ops {
				arg := uint64(opArg(op))
				switch opKind(op) {
				case opRead:
					k := arg % mapKeys
					mm.mu.Lock()
					v, ok := mm.m[k]
					mm.mu.Unlock()
					l.saw(k, v, ok)
				case opWrite:
					k, v := l.nextPut(arg)
					mm.mu.Lock()
					mm.m[k] = v
					mm.mu.Unlock()
				default:
					k := l.nextDel(arg)
					mm.mu.Lock()
					delete(mm.m, k)
					mm.mu.Unlock()
				}
			}
		}
	})

	wm := &rwMapKV{m: make(map[uint64]uint64, mapKeys)}
	wi := mapImpl("rwmutex+map", g, wm, func(ls []mapLane) batchFn {
		return func(id int, ops []uint32) {
			l := &ls[id]
			for _, op := range ops {
				arg := uint64(opArg(op))
				switch opKind(op) {
				case opRead:
					k := arg % mapKeys
					wm.mu.RLock()
					v, ok := wm.m[k]
					wm.mu.RUnlock()
					l.saw(k, v, ok)
				case opWrite:
					k, v := l.nextPut(arg)
					wm.mu.Lock()
					wm.m[k] = v
					wm.mu.Unlock()
				default:
					k := l.nextDel(arg)
					wm.mu.Lock()
					delete(wm.m, k)
					wm.mu.Unlock()
				}
			}
		}
	})

	c.impls = append(c.impls, ri, si, mi, wi)
	return c
}
