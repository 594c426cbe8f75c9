// Package memsys models a cache-coherent distributed shared memory in the
// style of the Alewife machine's LimitLESS directory protocol. It tracks,
// per cache line, which processors hold cached copies and computes the
// latency of loads, stores, and atomic read-modify-write operations:
//
//   - cache hits cost CacheHit cycles;
//   - misses travel to the line's home node (LocalMiss or RemoteMiss);
//   - each home memory module is a serially-occupied resource, so hot-spot
//     polling queues up (the effect that destroys test-and-set locks);
//   - obtaining write ownership invalidates read copies *sequentially*
//     (Alewife has no broadcast), so releasing a contended
//     test-and-test-and-set lock pays O(sharers) — the effect behind
//     Figure 3.2's poor TTS scaling;
//   - the directory keeps HWPointers hardware pointers; sharers beyond that
//     are handled by a software trap costing LimitLESSTrap cycles
//     (set HWPointers < 0 for the full-map DirNNB ablation).
//
// Data values are maintained exactly (the simulation engine serializes all
// accesses), so the coherence machinery is purely a timing model: protocols
// running on this memory observe a sequentially consistent memory.
package memsys

import (
	"fmt"
	"math/bits"
)

// Time is simulated cycles (mirrors sim.Time without importing it).
type Time = uint64

// Addr names a simulated memory word. The high 24 bits carry the home node,
// the low 40 bits the word offset within that node's memory.
type Addr uint64

const homeShift = 40

// Home returns the node on which the word resides.
func (a Addr) Home() int { return int(a >> homeShift) }

// MakeAddr builds an address on the given home node.
func MakeAddr(home int, offset uint64) Addr {
	return Addr(uint64(home)<<homeShift | offset&(1<<homeShift-1))
}

// Config holds the latency parameters of the memory system. DefaultConfig
// provides values calibrated so that the synchronization baselines of the
// thesis (Figure 3.15) reproduce: ~50-cycle remote misses, sequential
// invalidations, 5 hardware directory pointers.
type Config struct {
	NumNodes      int
	CacheHit      Time // cached read or owned write
	LocalMiss     Time // miss served by the local node's memory
	RemoteMiss    Time // miss served by a remote node (~50 cycles on Alewife)
	OwnerFetch    Time // extra trip when a miss must recall a dirty line
	Invalidate    Time // per-sharer sequential invalidation cost
	ModuleBusy    Time // module occupancy per directory request
	HWPointers    int  // directory pointers in hardware; <0 = full map
	LimitLESSTrap Time // software-extension trap cost per overflowed pointer
	Broadcast     bool // ablation: single-cost broadcast invalidation
}

// DefaultConfig returns the standard Alewife-like parameterization.
func DefaultConfig(numNodes int) Config {
	return Config{
		NumNodes:      numNodes,
		CacheHit:      2,
		LocalMiss:     11,
		RemoteMiss:    38,
		OwnerFetch:    30,
		Invalidate:    7,
		ModuleBusy:    6,
		HWPointers:    5,
		LimitLESSTrap: 40,
	}
}

// IdealConfig returns a uniform, contention-free memory (used for the
// "ideal memory system" barrier measurements of Figure 4.9).
func IdealConfig(numNodes int) Config {
	return Config{
		NumNodes:   numNodes,
		CacheHit:   2,
		LocalMiss:  2,
		RemoteMiss: 2,
		HWPointers: -1,
	}
}

type line struct {
	sharers  bitset
	owner    int // exclusive owner or -1
	full     bool
	fullInit bool
}

// System is the shared-memory timing model plus the actual word values.
type System struct {
	cfg     Config
	lines   map[Addr]*line
	data    map[Addr]uint64
	modFree []Time // per-home-module next-free time
	nextOff []uint64

	// Counters for experiment reporting.
	Reads, Writes, RMWs, Misses, Invals, Traps uint64
}

// New creates a memory system with the given configuration.
func New(cfg Config) *System {
	if cfg.NumNodes <= 0 {
		panic("memsys: NumNodes must be positive")
	}
	s := &System{
		cfg:     cfg,
		lines:   make(map[Addr]*line),
		data:    make(map[Addr]uint64),
		modFree: make([]Time, cfg.NumNodes),
		nextOff: make([]uint64, cfg.NumNodes),
	}
	// Word 0 of node 0 is never allocated so that Addr 0 can serve as a
	// nil pointer in simulated linked structures (e.g. MCS queue nodes).
	s.nextOff[0] = 1
	return s
}

// Config returns the system's configuration.
func (s *System) Config() Config { return s.cfg }

// Alloc reserves n consecutive words homed on the given node. Each word is
// its own coherence unit (synchronization variables are padded to separate
// lines, as the thesis's implementations prescribe).
func (s *System) Alloc(home int, n int) Addr {
	if home < 0 || home >= s.cfg.NumNodes {
		panic(fmt.Sprintf("memsys: Alloc on node %d of %d", home, s.cfg.NumNodes))
	}
	off := s.nextOff[home]
	s.nextOff[home] += uint64(n)
	return MakeAddr(home, off)
}

// AllocStriped reserves n words, word i homed on node i mod NumNodes.
func (s *System) AllocStriped(n int) []Addr {
	addrs := make([]Addr, n)
	for i := range addrs {
		addrs[i] = s.Alloc(i%s.cfg.NumNodes, 1)
	}
	return addrs
}

func (s *System) line(a Addr) *line {
	l, ok := s.lines[a]
	if !ok {
		l = &line{owner: -1}
		s.lines[a] = l
	}
	return l
}

// Peek returns the current value without any timing effect (for checkers
// and test assertions only).
func (s *System) Peek(a Addr) uint64 { return s.data[a] }

// Poke sets a value without timing effects (initialization).
func (s *System) Poke(a Addr, v uint64) { s.data[a] = v }

// module serializes a directory request arriving at time now and returns
// the time at which service starts.
func (s *System) module(a Addr, now Time) Time {
	h := a.Home()
	start := now
	if s.modFree[h] > start {
		start = s.modFree[h]
	}
	s.modFree[h] = start + s.cfg.ModuleBusy
	return start
}

// travel returns the request latency from proc to the home of a.
func (s *System) travel(proc int, a Addr) Time {
	if proc == a.Home() {
		return s.cfg.LocalMiss
	}
	return s.cfg.RemoteMiss
}

// ownedExclusively reports whether proc holds the line with write ownership
// and no other cached copies exist.
func (l *line) ownedExclusively(proc int) bool {
	if l.owner != proc {
		return false
	}
	n := l.sharers.count()
	return n == 0 || (n == 1 && l.sharers.has(proc))
}

// invalidateCost computes the cost of purging every cached copy except
// keep's. Invalidations are sequential unless the Broadcast ablation is on.
// Pointer overflow costs a software trap per overflowed sharer. The caller
// is responsible for setting the final directory state.
func (s *System) invalidateCost(l *line, keep int) Time {
	var cost Time
	n := l.sharers.count()
	if l.sharers.has(keep) {
		n--
	}
	overflowed := 0
	if s.cfg.HWPointers >= 0 && n > s.cfg.HWPointers {
		overflowed = n - s.cfg.HWPointers
	}
	if l.owner != -1 && l.owner != keep {
		cost += s.cfg.OwnerFetch
		s.Invals++
	}
	if n > 0 {
		if s.cfg.Broadcast {
			cost += s.cfg.Invalidate
		} else {
			cost += Time(n) * s.cfg.Invalidate
		}
		s.Invals += uint64(n)
	}
	if overflowed > 0 {
		cost += Time(overflowed) * s.cfg.LimitLESSTrap
		s.Traps += uint64(overflowed)
	}
	return cost
}

// Read performs a load by proc at time now; it returns the value and the
// completion time.
func (s *System) Read(proc int, a Addr, now Time) (uint64, Time) {
	s.Reads++
	l := s.line(a)
	if l.sharers.has(proc) || l.owner == proc {
		return s.data[a], now + s.cfg.CacheHit
	}
	s.Misses++
	start := s.module(a, now)
	cost := s.travel(proc, a)
	if l.owner != -1 && l.owner != proc {
		// Recall dirty copy; owner downgrades to sharer.
		cost += s.cfg.OwnerFetch
		l.sharers.add(l.owner)
		l.owner = -1
	}
	l.sharers.add(proc)
	if s.cfg.HWPointers >= 0 && l.sharers.count() > s.cfg.HWPointers {
		// Directory pointer overflow: software extends the directory.
		cost += s.cfg.LimitLESSTrap
		s.Traps++
	}
	return s.data[a], start + cost
}

// Write performs a store by proc; returns completion time.
func (s *System) Write(proc int, a Addr, v uint64, now Time) Time {
	s.Writes++
	l := s.line(a)
	if l.ownedExclusively(proc) {
		s.data[a] = v
		return now + s.cfg.CacheHit
	}
	s.Misses++
	start := s.module(a, now)
	cost := s.travel(proc, a)
	cost += s.invalidateCost(l, proc)
	l.sharers = zeroBitset
	l.owner = proc
	s.data[a] = v
	return start + cost
}

// RMW performs an atomic read-modify-write (test&set, fetch&store,
// fetch&add, compare&swap) by proc. f receives the old value and returns
// the new value and whether to store it. It returns the old value, whether
// the store happened, and the completion time.
//
// RMW always involves the home module (Alewife's colored loads/stores for
// synchronization bypass local caching of the locked state), but if proc
// already owns the line exclusively the operation is a fast owned hit.
func (s *System) RMW(proc int, a Addr, now Time, f func(old uint64) (uint64, bool)) (uint64, bool, Time) {
	s.RMWs++
	l := s.line(a)
	old := s.data[a]
	nv, store := f(old)
	if l.ownedExclusively(proc) {
		if store {
			s.data[a] = nv
		}
		return old, store, now + s.cfg.CacheHit
	}
	s.Misses++
	start := s.module(a, now)
	cost := s.travel(proc, a)
	cost += s.invalidateCost(l, proc)
	l.sharers = zeroBitset
	l.owner = proc
	if store {
		s.data[a] = nv
	}
	return old, store, start + cost
}

// --- Full/empty bits (Alewife fine-grain synchronization support) ---

// ReadFE reads the word and its full/empty bit (cache-timing like Read).
func (s *System) ReadFE(proc int, a Addr, now Time) (uint64, bool, Time) {
	l := s.line(a)
	v, t := s.Read(proc, a, now)
	return v, l.full, t
}

// WriteFull stores v and sets the full bit (timing like Write).
func (s *System) WriteFull(proc int, a Addr, v uint64, now Time) Time {
	l := s.line(a)
	t := s.Write(proc, a, v, now)
	l.full = true
	return t
}

// SetEmpty clears the full/empty bit without timing cost (initialization).
func (s *System) SetEmpty(a Addr) { s.line(a).full = false }

// IsFull reports the full/empty bit without timing cost.
func (s *System) IsFull(a Addr) bool { return s.line(a).full }

// --- sharer bitsets (up to 256 nodes; Figure 3.24 runs 128 processors) ---

const maxNodes = 256

type bitset [maxNodes / 64]uint64

var zeroBitset bitset

func (b *bitset) add(p int) {
	if p < 0 || p >= maxNodes {
		panic("memsys: node id out of bitset range")
	}
	b[p/64] |= 1 << uint(p%64)
}

func (b *bitset) has(p int) bool {
	if p < 0 || p >= maxNodes {
		return false
	}
	return b[p/64]&(1<<uint(p%64)) != 0
}

func (b *bitset) count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}
