package affinity

import (
	"runtime"
	"sync"
	"testing"
)

func TestShardsCoversGOMAXPROCS(t *testing.T) {
	n := Shards()
	if n < 2 {
		t.Fatalf("Shards() = %d, want ≥ 2", n)
	}
	if n&(n-1) != 0 {
		t.Fatalf("Shards() = %d, want a power of two", n)
	}
	if n < runtime.GOMAXPROCS(0) {
		t.Fatalf("Shards() = %d < GOMAXPROCS = %d", n, runtime.GOMAXPROCS(0))
	}
	if n >= 4 && n/2 >= runtime.GOMAXPROCS(0) {
		t.Fatalf("Shards() = %d not the *next* power of two ≥ %d", n, runtime.GOMAXPROCS(0))
	}
}

func TestPinIndexInRangeWhenExact(t *testing.T) {
	idx := Pin()
	Unpin()
	if idx < 0 {
		t.Fatalf("Pin() = %d, want ≥ 0", idx)
	}
	if Exact && idx >= runtime.GOMAXPROCS(0) {
		t.Fatalf("exact Pin() = %d, want < GOMAXPROCS = %d", idx, runtime.GOMAXPROCS(0))
	}
}

// TestPinStableWhilePinned: with the exact implementation, the index
// cannot change between Pin and Unpin — preemption is disabled, so a
// nested Pin inside the pinned region must observe the same processor.
func TestPinStableWhilePinned(t *testing.T) {
	if !Exact {
		t.Skip("the stripe-hash fallback does not guarantee a stable index")
	}
	for i := 0; i < 1000; i++ {
		a := Pin()
		b := Pin() // nested: pins count, preemption stays disabled
		Unpin()
		Unpin()
		if a != b {
			t.Fatalf("index changed while pinned: %d then %d", a, b)
		}
	}
}

// TestPinConcurrent hammers Pin/Unpin from many goroutines; the masked
// index must stay in range for a Shards()-sized array throughout.
func TestPinConcurrent(t *testing.T) {
	mask := Shards() - 1
	var wg sync.WaitGroup
	for g := 0; g < 4*runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10_000; i++ {
				idx := Pin() & mask
				Unpin()
				if idx < 0 || idx > mask {
					t.Errorf("masked index %d out of [0,%d]", idx, mask)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestPinAllocs pins the reason this package exists: selecting a shard
// index allocates nothing. (The fallback's first Get per P allocates a
// stripe; warm up before measuring.)
func TestPinAllocs(t *testing.T) {
	Pin()
	Unpin()
	if avg := testing.AllocsPerRun(1000, func() {
		Pin()
		Unpin()
	}); avg != 0 {
		t.Fatalf("Pin/Unpin allocates %v per op, want 0", avg)
	}
}

// TestRandSamplesEvenly: Rand is what Counter samples its contention
// probe with (one draw in 32), so its low bits must hit a residue about
// as often as a fair draw would, and a draw allocates nothing.
func TestRandSamplesEvenly(t *testing.T) {
	const draws, every = 1 << 16, 64
	hits := 0
	for i := 0; i < draws; i++ {
		if Rand()%every == 0 {
			hits++
		}
	}
	// Expect draws/every = 1024 (σ ≈ 32); the bounds are 16σ wide.
	if lo, hi := draws/every/2, 2*draws/every; hits < lo || hits > hi {
		t.Fatalf("%d of %d draws ≡ 0 mod %d, want within [%d, %d]", hits, draws, every, lo, hi)
	}
	if avg := testing.AllocsPerRun(1000, func() { Rand() }); avg != 0 {
		t.Fatalf("Rand allocates %v per op, want 0", avg)
	}
}
