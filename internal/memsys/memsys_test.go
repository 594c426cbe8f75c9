package memsys

import (
	"testing"
	"testing/quick"
)

func sys(n int) *System { return New(DefaultConfig(n)) }

func TestAddrHome(t *testing.T) {
	s := sys(8)
	for h := 0; h < 8; h++ {
		a := s.Alloc(h, 4)
		if a.Home() != h {
			t.Fatalf("home of alloc on %d = %d", h, a.Home())
		}
	}
}

func TestAllocDistinct(t *testing.T) {
	s := sys(4)
	seen := map[Addr]bool{}
	for i := 0; i < 100; i++ {
		a := s.Alloc(i%4, 3)
		if seen[a] {
			t.Fatalf("duplicate address %v", a)
		}
		seen[a] = true
	}
}

func TestReadMissThenHit(t *testing.T) {
	s := sys(4)
	a := s.Alloc(1, 1)
	s.Poke(a, 42)
	v, done := s.Read(0, a, 100)
	if v != 42 {
		t.Fatalf("read value %d", v)
	}
	missLat := done - 100
	if missLat < s.cfg.RemoteMiss {
		t.Fatalf("remote miss latency %d < %d", missLat, s.cfg.RemoteMiss)
	}
	v2, done2 := s.Read(0, a, done)
	if v2 != 42 || done2-done != s.cfg.CacheHit {
		t.Fatalf("second read should hit: lat=%d", done2-done)
	}
}

func TestLocalVsRemoteMiss(t *testing.T) {
	s := sys(4)
	a := s.Alloc(2, 1)
	_, dLocal := s.Read(2, a, 0)
	b := s.Alloc(2, 1)
	_, dRemote := s.Read(0, b, 0)
	if dLocal >= dRemote {
		t.Fatalf("local miss %d should be cheaper than remote %d", dLocal, dRemote)
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	s := sys(8)
	a := s.Alloc(0, 1)
	// Four readers cache the line.
	now := Time(0)
	for p := 1; p <= 4; p++ {
		_, d := s.Read(p, a, now)
		now = d
	}
	// A write must pay sequential invalidations.
	d := s.Write(5, a, 9, now)
	cost := d - now
	minCost := s.cfg.RemoteMiss + 4*s.cfg.Invalidate
	if cost < minCost {
		t.Fatalf("write with 4 sharers cost %d < %d", cost, minCost)
	}
	// After the write, a reader must miss again.
	_, d2 := s.Read(1, a, d)
	if d2-d <= s.cfg.CacheHit {
		t.Fatalf("stale sharer read hit after invalidation")
	}
	if v := s.Peek(a); v != 9 {
		t.Fatalf("value %d after write", v)
	}
}

func TestSequentialInvalidationScalesWithSharers(t *testing.T) {
	cost := func(nshare int) Time {
		s := sys(64)
		a := s.Alloc(0, 1)
		for p := 1; p <= nshare; p++ {
			s.Read(p, a, 0)
		}
		d := s.Write(0, a, 1, 1000)
		return d - 1000
	}
	c8, c32 := cost(8), cost(32)
	if c32 <= c8 {
		t.Fatalf("invalidation cost should grow with sharers: 8->%d 32->%d", c8, c32)
	}
}

func TestBroadcastAblation(t *testing.T) {
	cfg := DefaultConfig(64)
	cfg.Broadcast = true
	s := New(cfg)
	a := s.Alloc(0, 1)
	for p := 1; p <= 32; p++ {
		s.Read(p, a, 0)
	}
	d := s.Write(0, a, 1, 1000)
	seq := sys(64)
	b := seq.Alloc(0, 1)
	for p := 1; p <= 32; p++ {
		seq.Read(p, b, 0)
	}
	d2 := seq.Write(0, b, 1, 1000)
	if d >= d2 {
		t.Fatalf("broadcast invalidation (%d) should beat sequential (%d)", d-1000, d2-1000)
	}
}

func TestLimitLESSOverflowTraps(t *testing.T) {
	s := sys(32)
	a := s.Alloc(0, 1)
	for p := 0; p < 10; p++ {
		s.Read(p, a, 0)
	}
	if s.Traps == 0 {
		t.Fatal("expected software-extension traps beyond 5 hardware pointers")
	}
	// Full-map directory: no traps.
	cfg := DefaultConfig(32)
	cfg.HWPointers = -1
	f := New(cfg)
	b := f.Alloc(0, 1)
	for p := 0; p < 10; p++ {
		f.Read(p, b, 0)
	}
	if f.Traps != 0 {
		t.Fatalf("full-map directory trapped %d times", f.Traps)
	}
}

func TestModuleOccupancySerializes(t *testing.T) {
	s := sys(8)
	a := s.Alloc(0, 1)
	// 16 simultaneous RMWs at t=0 from distinct processors must serialize
	// at the home module.
	var last Time
	for p := 0; p < 8; p++ {
		_, _, d := s.RMW(p, a, 0, func(old uint64) (uint64, bool) { return old + 1, true })
		if d <= last && p > 0 {
			t.Fatalf("RMW %d completed at %d, not after previous %d", p, d, last)
		}
		last = d
	}
	if s.Peek(a) != 8 {
		t.Fatalf("value %d after 8 increments", s.Peek(a))
	}
}

func TestRMWSemantics(t *testing.T) {
	s := sys(4)
	a := s.Alloc(0, 1)
	// test&set
	old, stored, _ := s.RMW(1, a, 0, func(o uint64) (uint64, bool) { return 1, true })
	if old != 0 || !stored {
		t.Fatal("test&set on clear flag")
	}
	old, _, _ = s.RMW(2, a, 10, func(o uint64) (uint64, bool) { return 1, true })
	if old != 1 {
		t.Fatal("test&set on set flag should return 1")
	}
	// compare&swap failure leaves value.
	_, stored, _ = s.RMW(3, a, 20, func(o uint64) (uint64, bool) {
		if o == 99 {
			return 7, true
		}
		return 0, false
	})
	if stored || s.Peek(a) != 1 {
		t.Fatal("failed CAS must not store")
	}
}

func TestOwnedRMWIsFast(t *testing.T) {
	s := sys(4)
	a := s.Alloc(0, 1)
	_, _, d1 := s.RMW(0, a, 0, func(o uint64) (uint64, bool) { return o + 1, true })
	_, _, d2 := s.RMW(0, a, d1, func(o uint64) (uint64, bool) { return o + 1, true })
	if d2-d1 != s.cfg.CacheHit {
		t.Fatalf("owned RMW cost %d, want cache hit %d", d2-d1, s.cfg.CacheHit)
	}
}

func TestFullEmptyBits(t *testing.T) {
	s := sys(4)
	a := s.Alloc(0, 1)
	s.SetEmpty(a)
	if s.IsFull(a) {
		t.Fatal("fresh word should be empty after SetEmpty")
	}
	_, full, _ := s.ReadFE(1, a, 0)
	if full {
		t.Fatal("ReadFE full on empty word")
	}
	s.WriteFull(2, a, 77, 10)
	v, full, _ := s.ReadFE(1, a, 50)
	if !full || v != 77 {
		t.Fatalf("ReadFE after WriteFull = (%d, %v)", v, full)
	}
}

func TestBitset(t *testing.T) {
	if err := quick.Check(func(raw []uint8) bool {
		var b bitset
		ref := map[int]bool{}
		for _, r := range raw {
			p := int(r) % maxNodes
			b.add(p)
			ref[p] = true
		}
		if b.count() != len(ref) {
			return false
		}
		for p := range ref {
			if !b.has(p) {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// refInvalidateCost is invalidateCost as it was before it counted sharers
// with popcount: it walks the sharers one node id at a time. It stays here
// as the reference the differential test holds the fast version to.
func refInvalidateCost(s *System, l *line, keep int) Time {
	var cost Time
	n := 0
	overflowed := 0
	for p := 0; p < maxNodes; p++ {
		if !l.sharers.has(p) || p == keep {
			continue
		}
		n++
		if s.cfg.HWPointers >= 0 && n > s.cfg.HWPointers {
			overflowed++
		}
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

func TestInvalidateCostMatchesReference(t *testing.T) {
	if err := quick.Check(func(sharers []uint8, owner uint16, keep, ptrs uint8, broadcast bool) bool {
		cfg := DefaultConfig(maxNodes)
		cfg.HWPointers = int(ptrs%8) - 1 // -1 (full map) .. 6
		cfg.Broadcast = broadcast
		l := &line{owner: int(owner%(maxNodes+1)) - 1} // -1 (none) .. maxNodes-1
		for _, p := range sharers {
			l.sharers.add(int(p))
		}
		k := int(keep)
		got, want := New(cfg), New(cfg)
		gc, wc := got.invalidateCost(l, k), refInvalidateCost(want, l, k)
		return gc == wc && got.Invals == want.Invals && got.Traps == want.Traps
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestValueCoherence(t *testing.T) {
	// Values must behave sequentially consistently regardless of timing.
	if err := quick.Check(func(ops []uint8, seed uint64) bool {
		s := sys(4)
		a := s.Alloc(0, 1)
		var ref uint64
		now := Time(0)
		for i, op := range ops {
			p := i % 4
			switch op % 3 {
			case 0:
				v, d := s.Read(p, a, now)
				if v != ref {
					return false
				}
				now = d
			case 1:
				ref = uint64(op)
				now = s.Write(p, a, ref, now)
			case 2:
				old, _, d := s.RMW(p, a, now, func(o uint64) (uint64, bool) { return o + 1, true })
				if old != ref {
					return false
				}
				ref++
				now = d
			}
		}
		return s.Peek(a) == ref
	}, nil); err != nil {
		t.Fatal(err)
	}
}
