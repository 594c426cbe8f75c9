package epoch

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/reactive/internal/affinity"
)

// here is the cell of the caller's current P, as RWMutex.RUnlock takes it.
func here(k *Kernel) *affinity.Cell {
	c := k.Cell(affinity.Pin())
	affinity.Unpin()
	return c
}

// mustEnter registers one reader on a kernel the test expects to accept it.
func mustEnter(t *testing.T, k *Kernel) *affinity.Cell {
	t.Helper()
	c, claimed := k.Enter()
	if c == nil {
		t.Fatalf("Enter refused (claimed=%v) on a selected, unclaimed kernel", claimed)
	}
	return c
}

// TestEnterValidatesAgainstGate walks the reader side of the protocol
// single-threaded: an accepted reader is in every sum taken after a
// later claim until it exits, and its exit reports the pending claim; a
// reader arriving under a claim — or on an unselected kernel — is
// refused and leaves the sum at zero.
func TestEnterValidatesAgainstGate(t *testing.T) {
	var k Kernel
	k.Select(true, false)

	c := mustEnter(t, &k)
	k.Claim()
	for i := 0; i < 3; i++ {
		if sum := k.Sum(); sum != 1 {
			t.Fatalf("sweep %d after the claim read %d, want the registered reader's 1", i, sum)
		}
	}
	if late, claimed := k.Enter(); late != nil || !claimed {
		t.Fatalf("Enter under a claim = (%v, %v), want refused with the claim reported", late, claimed)
	}
	if sum := k.Sum(); sum != 1 {
		t.Fatalf("a refused Enter left the sum at %d, want its deposit undone (1)", sum)
	}
	if !k.Exit(c) {
		t.Fatal("Exit under a claim did not report it: the sweeping writer would never be woken")
	}
	if sum := k.Sum(); sum != 0 {
		t.Fatalf("sum %d after the last reader exited, want 0", sum)
	}
	k.Release()

	c = mustEnter(t, &k)
	if k.Exit(c) {
		t.Fatal("Exit reported a claim after Release")
	}

	k.Select(false, false)
	if c, claimed := k.Enter(); c != nil || claimed {
		t.Fatalf("Enter on an unselected kernel = (%v, %v), want refused with no claim", c, claimed)
	}
	if sum := k.Sum(); sum != 0 {
		t.Fatalf("sum %d after refused entries, want 0", sum)
	}
}

// TestSelectUnderClaim: a writer that selects the epoch mode from inside
// its critical section — its own Claim was the no-op that predates the
// cells — must come out with the claim in place, or a reader carrying
// the mode from an earlier era would be admitted beside it.
func TestSelectUnderClaim(t *testing.T) {
	var k Kernel
	k.Claim() // no cells yet: nothing to claim, and nothing may stick
	if err := k.Check(false); err != nil {
		t.Fatalf("Claim before the cells exist left state behind: %v", err)
	}
	k.Select(true, true)
	if c, claimed := k.Enter(); c != nil || !claimed {
		t.Fatalf("Enter beside the selecting writer = (%v, %v), want refused by its claim", c, claimed)
	}
	k.Release()
	k.Exit(mustEnter(t, &k))
	if err := k.Check(true); err != nil {
		t.Fatal(err)
	}
}

// TestBuildIsGateNeutral: Build is how an owner whose readers validate
// against a word of its own (RWMutex's sharded registration) gets the
// cells without selecting the epoch mode. The gate stays unselected — an
// epoch reader is still refused — while deposits through Cell are swept,
// and Claim and Release stop being the no-ops they are before the cells
// exist, so an exit under a claim reports it.
func TestBuildIsGateNeutral(t *testing.T) {
	var k Kernel
	k.Build()
	if k.Cells() == 0 {
		t.Fatal("Build left the kernel without cells")
	}
	if err := k.Check(false); err != nil {
		t.Fatalf("Build moved the gate: %v", err)
	}
	if c, claimed := k.Enter(); c != nil || claimed {
		t.Fatalf("Enter after Build alone = (%v, %v), want refused with no claim", c, claimed)
	}

	c := deposit(&k)
	k.Claim()
	if sum := k.Sum(); sum != 1 {
		t.Fatalf("sweep under the claim read %d, want the deposit's 1", sum)
	}
	if err := k.Check(false); err == nil {
		t.Fatal("Claim after Build left no claim on the gate")
	}
	if !k.Exit(c) {
		t.Fatal("Exit under a claim did not report it")
	}
	k.Release()
	if k.Exit(deposit(&k)) {
		t.Fatal("Exit reported a claim after Release")
	}
	if err := k.Check(false); err != nil {
		t.Fatal(err)
	}
}

// deposit registers one reader the way an owner that validates against
// its own word does: straight into the caller's cell.
func deposit(k *Kernel) *affinity.Cell {
	c := here(k)
	c.N.Add(1)
	return c
}

// TestEpochClaimExcludesReaders is the exclusion property under the race
// detector: writers that claim and wait for a zero sum, and readers
// that touch shared only between a successful Enter and its Exit, never
// overlap. shared is a plain variable on purpose — an admitted reader
// the sweep missed is a data race the detector reports.
func TestEpochClaimExcludesReaders(t *testing.T) {
	var k Kernel
	k.Select(true, false)
	var (
		wl      sync.Mutex // the owner's writer lock
		shared  int
		inside  atomic.Int32
		refused atomic.Int64
		sink    atomic.Int64
		wg      sync.WaitGroup
	)
	const readers, writers, rounds = 4, 2, 300
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			seen := 0 // keeps the read of shared live
			defer func() { sink.Add(int64(seen)) }()
			for i := 0; i < 4*rounds; i++ {
				c, _ := k.Enter()
				if c == nil {
					refused.Add(1)
					runtime.Gosched()
					continue
				}
				inside.Add(1)
				seen += shared
				inside.Add(-1)
				k.Exit(c)
			}
		}()
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				wl.Lock()
				k.Claim()
				quiet := k.Sum() == 0
				for k.Sum() != 0 {
					runtime.Gosched()
				}
				if n := inside.Load(); n != 0 {
					t.Errorf("%d readers inside after the sum read zero under a claim", n)
				}
				shared++
				k.Grace(quiet)
				k.Release()
				wl.Unlock()
			}
		}()
	}
	wg.Wait()
	if shared != writers*rounds {
		t.Fatalf("shared = %d, want %d", shared, writers*rounds)
	}
	if got := k.Graces(); got != writers*rounds {
		t.Fatalf("Graces = %d, want %d", got, writers*rounds)
	}
	if q := k.QuietGraces(); q > k.Graces() {
		t.Fatalf("QuietGraces %d exceeds Graces %d", q, k.Graces())
	}
	if err := k.Check(true); err != nil {
		t.Fatalf("after the run (%d refused entries): %v", refused.Load(), err)
	}
}

// TestGraceAccounting: every grace period counts, quiet ones twice over.
func TestGraceAccounting(t *testing.T) {
	var k Kernel
	for _, quiet := range []bool{true, false, true, false, false} {
		k.Grace(quiet)
	}
	if g, q := k.Graces(), k.QuietGraces(); g != 5 || q != 2 {
		t.Fatalf("Graces, QuietGraces = %d, %d, want 5, 2", g, q)
	}
}

// TestEnterExitZeroAllocs pins the reader side at zero allocations, for
// both ways a reader can hand its cell back.
func TestEnterExitZeroAllocs(t *testing.T) {
	var k Kernel
	k.Select(true, false)
	if n := testing.AllocsPerRun(1000, func() {
		c, _ := k.Enter()
		k.Exit(c)
	}); n != 0 {
		t.Errorf("Enter/Exit: %v allocs per run, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		k.Enter()
		k.Exit(here(&k))
	}); n != 0 {
		t.Errorf("Enter/Exit(Cell(Pin())): %v allocs per run, want 0", n)
	}
}

// TestCheckCatchesEachViolation: a checker that cannot fail verifies
// nothing, so each violation Check names is staged and must be caught
// (and must clear once undone): a claim nobody holds, a mode bit that
// disagrees with the caller's mode in either direction, and a cell
// residue of either sign.
func TestCheckCatchesEachViolation(t *testing.T) {
	wantErr := func(err error, frag string) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), frag) {
			t.Fatalf("Check = %v, want an error mentioning %q", err, frag)
		}
	}
	var k Kernel
	if err := k.Check(false); err != nil {
		t.Fatalf("zero kernel: %v", err)
	}
	wantErr(k.Check(true), "mode bit")

	k.Select(true, false)
	if err := k.Check(true); err != nil {
		t.Fatalf("selected kernel: %v", err)
	}
	wantErr(k.Check(false), "mode bit")

	k.Claim()
	wantErr(k.Check(true), "claim")
	k.Release()

	c := mustEnter(t, &k)
	wantErr(k.Check(true), "deltas sum to 1")
	k.Exit(c)
	k.Exit(here(&k)) // an exit that never entered
	wantErr(k.Check(true), "deltas sum to -1")
	k.Exit(mustEnter(t, &k)) // balanced pair: the residue stays
	wantErr(k.Check(true), "deltas sum to -1")
	mustEnter(t, &k)
	if err := k.Check(true); err != nil {
		t.Fatalf("restored: %v", err)
	}

	k.Select(false, false)
	if err := k.Check(false); err != nil {
		t.Fatalf("deselected: %v", err)
	}
}
