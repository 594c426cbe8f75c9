package epoch

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/watchdog"
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
// later claim until it exits; a reader arriving under a claim — or on an
// unselected kernel — is refused, says which, and leaves the sum at zero.
func TestEnterValidatesAgainstGate(t *testing.T) {
	var k Kernel
	k.Select(true)

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
	k.Exit(c)
	if sum := k.Sum(); sum != 0 {
		t.Fatalf("sum %d after the last reader exited, want 0", sum)
	}
	k.Release()
	k.Exit(mustEnter(t, &k))

	k.Select(false)
	if c, claimed := k.Enter(); c != nil || claimed {
		t.Fatalf("Enter on an unselected kernel = (%v, %v), want refused with no claim", c, claimed)
	}
	if sum := k.Sum(); sum != 0 {
		t.Fatalf("sum %d after refused entries, want 0", sum)
	}
}

// TestSelectOffIsGateNeutral: Select(false) is how an owner whose
// readers validate against a word of its own (RWMutex's sharded
// registration) gets the cells without selecting the epoch mode. The
// gate stays unselected — an epoch reader is still refused — while
// deposits through Cell are swept, and Claim and Release stop being the
// no-ops they are before the cells exist.
func TestSelectOffIsGateNeutral(t *testing.T) {
	var k Kernel
	k.Claim() // no cells yet: nothing to claim, and nothing may stick
	if err := k.Check(false); err != nil {
		t.Fatalf("Claim before the cells exist left state behind: %v", err)
	}
	k.Select(false)
	if k.Cells() == 0 {
		t.Fatal("Select(false) left the kernel without cells")
	}
	if err := k.Check(false); err != nil {
		t.Fatalf("Select(false) moved the gate: %v", err)
	}
	if c, claimed := k.Enter(); c != nil || claimed {
		t.Fatalf("Enter after Select(false) = (%v, %v), want refused with no claim", c, claimed)
	}

	c := deposit(&k)
	k.Claim()
	if sum := k.Sum(); sum != 1 {
		t.Fatalf("sweep under the claim read %d, want the deposit's 1", sum)
	}
	if err := k.Check(false); err == nil {
		t.Fatal("Claim after Select(false) left no claim on the gate")
	}
	for _, on := range []bool{true, false} {
		k.Select(on) // a mode commit inside the writer leaves its claim
		if !k.Claimed() {
			t.Fatalf("Select(%v) under a claim dropped it", on)
		}
	}
	k.Exit(c)
	k.Release()
	k.Exit(deposit(&k))
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
// detector: writers that claim and Wait for a zero sum — the shipped
// writer half, polling a short budget and then parking until an Exit
// wakes them — and readers that touch shared only between a successful
// Enter and its Exit, never overlap. shared is a plain variable on
// purpose — an admitted reader the sweep missed is a data race the
// detector reports.
func TestEpochClaimExcludesReaders(t *testing.T) {
	var k Kernel
	k.Select(true)
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
				k.Wait(2, nil, func() bool { return k.Sum() == 0 })
				if n := inside.Load(); n != 0 {
					t.Errorf("%d readers inside after the sum read zero under a claim", n)
				}
				shared++
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

// TestExitWakesParkedWriter: a writer parked in Wait — budget 0, so it
// announces at once, and its post-announce re-test has already seen the
// reader — is woken by the last reader's Exit alone. Nothing else grants
// into the kernel's queue, so if Exit stopped granting the writer would
// sleep forever and the watchdog trips.
func TestExitWakesParkedWriter(t *testing.T) {
	var k Kernel
	k.Select(true)
	c := mustEnter(t, &k)
	k.Claim()
	var evals atomic.Int32
	done := make(chan struct{})
	go func() {
		defer close(done)
		k.Wait(0, nil, func() bool {
			evals.Add(1)
			return k.Sum() == 0
		})
	}()
	// Two evaluations: the quiet check and the post-announce re-test. After
	// the second the writer is committed to sleeping until a grant.
	for evals.Load() < 2 || k.Waiters() != 1 {
		time.Sleep(20 * time.Microsecond)
	}
	k.Exit(c)
	if err := watchdog.Await(done, 10*time.Second, func() string { return "writer parked in Wait after the last Exit" }); err != nil {
		t.Fatal(err)
	}
	k.Release()
	if err := k.Check(true); err != nil {
		t.Fatal(err)
	}
}

// TestWaitCountsGraces: a Wait counts a grace period only while the
// gate's mode bit is set — an owner's cell mode that validates against a
// word of its own (Select(false)) drains without counting — and counts it
// quiet when the first evaluation already held. An aborted Wait counts
// nothing.
func TestWaitCountsGraces(t *testing.T) {
	var k Kernel
	drained := func() bool { return k.Sum() == 0 }
	wantGraces := func(g, q uint64) {
		t.Helper()
		if gg, qq := k.Graces(), k.QuietGraces(); gg != g || qq != q {
			t.Fatalf("Graces, QuietGraces = %d, %d, want %d, %d", gg, qq, g, q)
		}
	}

	k.Select(false)
	k.Claim()
	if quiet, aborted := k.Wait(0, nil, drained); !quiet || aborted {
		t.Fatalf("Wait on an empty unselected kernel = (%v, %v), want quiet", quiet, aborted)
	}
	k.Release()
	wantGraces(0, 0)

	k.Select(true)
	k.Claim()
	if quiet, _ := k.Wait(0, nil, drained); !quiet {
		t.Fatal("first sweep read zero but the grace was not quiet")
	}
	k.Release()
	wantGraces(1, 1)

	c := mustEnter(t, &k)
	k.Claim()
	evals := 0
	quiet, aborted := k.Wait(4, nil, func() bool {
		if evals++; evals == 2 {
			k.Exit(c) // the reader leaves while the writer polls
		}
		return drained()
	})
	if quiet || aborted {
		t.Fatalf("Wait past a reader = (%v, %v), want neither quiet nor aborted", quiet, aborted)
	}
	k.Release()
	wantGraces(2, 1)

	c = mustEnter(t, &k)
	k.Claim()
	closed := make(chan struct{})
	close(closed)
	if _, aborted := k.Wait(4, closed, drained); !aborted {
		t.Fatal("a closed done did not abort the Wait")
	}
	wantGraces(2, 1)
	k.Release()
	k.Exit(c)
	if err := k.Check(true); err != nil {
		t.Fatal(err)
	}
}

// TestQueueOffTheGateLine pins the kernel's layout: every epoch reader
// loads the gate's line, so the queue's lock (its first word), which a
// parking writer and granting readers store to, starts at least one
// 64-byte line (amd64's and arm64's) after the gate.
func TestQueueOffTheGateLine(t *testing.T) {
	const line = 64
	var k Kernel
	if d := unsafe.Offsetof(k.q) - unsafe.Offsetof(k.gate); d < line {
		t.Fatalf("queue starts %d bytes after the gate, want >= %d", d, line)
	}
}

// TestEnterExitZeroAllocs pins the reader side at zero allocations, for
// both ways a reader can hand its cell back.
func TestEnterExitZeroAllocs(t *testing.T) {
	var k Kernel
	k.Select(true)
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
// disagrees with the caller's mode in either direction, a cell residue
// of either sign, and a writer left parked.
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

	k.Select(true)
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

	k.Select(false)
	if err := k.Check(false); err != nil {
		t.Fatalf("deselected: %v", err)
	}

	stop := make(chan struct{})
	aborted := make(chan bool)
	go func() {
		_, a := k.Wait(0, stop, func() bool { return false })
		aborted <- a
	}()
	for k.Waiters() != 1 {
		time.Sleep(20 * time.Microsecond)
	}
	wantErr(k.Check(false), "1 waiters")
	close(stop)
	if !<-aborted {
		t.Fatal("closing done did not abort the parked Wait")
	}
	if err := k.Check(false); err != nil {
		t.Fatalf("after the aborted Wait: %v", err)
	}
}
