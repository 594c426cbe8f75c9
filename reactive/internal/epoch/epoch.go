// Package epoch is the grace-period kernel behind the epoch modes of
// package reactive: RWMutex's third reader-registration protocol and
// Map's published-table protocol are both this one userspace-RCU-style
// machine, written down once (DESIGN.md §8 is its proof). RWMutex's
// sharded registration borrows the cells, the exit and the wait (Build,
// Cell, Exit, Wait) and validates its deposit against a word of
// RWMutex's own, which the same writers claim alongside the gate — the
// proof with that word read for "the gate".
//
// The machine has two sides, and the kernel owns both. Readers Enter
// and Exit: a reader deposits +1 in its processor's padded cell,
// validates the deposit against one shared gate word it loads but never
// stores, and later withdraws it — so an epoch read writes nothing
// outside its own per-P cell. A writer (the owner serializes writers)
// Claims the gate and Waits until the owner's drained predicate — Sum
// reads zero, plus whatever else the owner waits for — holds: the grace
// period, every reader that validated before the claim has exited. It
// then does its work and Releases. The writer parks on the kernel's own
// queue and Exit grants into it whenever the gate carries a claim, so
// no owner writes the wake (Wake is for readers outside the cells), and
// Wait counts the grace period, so no owner keeps the count. Readers
// arriving under a claim are refused; what they do instead (park, take
// a lock) is the owner's business.
//
// Why a zero Sum under a claim proves no reader is inside. Enter's
// deposit is a sequentially consistent read-modify-write, so it precedes
// the same goroutine's gate load; Claim's store precedes every sweep
// load that follows it. If a reader's gate load saw no claim, that load
// came before the claim's store, hence the deposit came before every
// sweep read of this grace period: the sweep cannot miss a registered
// reader. Each Exit decrement is paired with a deposit the sweep
// therefore also saw, and a refused Enter undoes its own deposit, so
// in-flight deposit/undo pairs only ever inflate the sum — a
// conservative re-sweep, never a lost reader. Exit loads the gate after
// its decrement (again a sequentially consistent RMW), so a writer that
// swept before the decrement is either still polling and re-sweeps on
// its own, or has announced itself on the kernel's queue and gets Exit's
// grant (announce-then-check, DESIGN.md §5).
package epoch

import (
	"fmt"
	"sync/atomic"

	"repro/reactive/internal/affinity"
	"repro/reactive/internal/chaos"
	"repro/reactive/internal/waitq"
)

// Gate word bits. Writers own every store — serialized by the owner's
// writer lock, or performed under full writer exclusion for the mode-bit
// flips — so the word is single-writer and a plain load/modify/store
// suffices on the writer side. The claim is the sign bit and the mode
// bit sits directly below it, so each reader-side test is one signed
// compare: "selected and unclaimed" is g >= selected (a claim makes g
// negative, an unselected gate is 0), "claim pending" is g < 0.
const (
	// claim is set by Claim before the writer's first sweep and cleared
	// by Release.
	claim int64 = -1 << 63
	// selected is set exactly while the owner's epoch mode is selected;
	// it changes only under writer exclusion, before the owner's engine
	// commit publishes the mode (Select).
	selected int64 = 1 << 62
)

// Kernel is one epoch domain: the gate word, the lazily built per-P
// cells, the grace-period counters, and the queue a waiting writer parks
// on. The zero value is an unselected kernel with no cells; a Kernel must
// not be copied after first use.
type Kernel struct {
	// gate comes first: at offset zero Exit's load of it costs the
	// inliner nothing extra, and Exit fits the budget (79 of 80).
	gate  atomic.Int64
	cells affinity.Cells

	graces, quiet atomic.Uint64

	// Every epoch reader loads the gate's line, while the queue's lock and
	// links are stored to by the parking writer and by granting readers.
	// The fields above fill 64 bytes, so the lock sits on the next 64-byte
	// line whatever the kernel's alignment (TestQueueOffTheGateLine). A
	// full affinity.CacheLineSize granule would take 64 bytes of padding
	// and move Map[uint64, uint64] and RWMutex into larger allocator size
	// classes.
	q waitq.Queue
}

// Enter attempts one reader registration: pin, deposit +1 in this P's
// cell, validate against the gate that the epoch mode is selected and no
// claim is in place, unpin. On success it returns the cell, which the
// reader hands back to Exit (or re-derives with Cell). A refused Enter
// has already undone its deposit (through Exit, so a parked writer is
// woken) and returns a nil cell and whether the refusal was a claim
// rather than an unselected gate. The deposit and the validation run
// pinned (no user code), so preemption cannot widen the window in which
// a sweeping writer sees a deposit whose validation is still pending.
//
// Enter may be called only after the owner has observed the epoch mode,
// which Select publishes after building the cells.
func (k *Kernel) Enter() (c *affinity.Cell, claimed bool) {
	c = k.Cell(affinity.Pin())
	c.N.Add(1)
	chaos.PinnedPoint("epoch.stamp")
	g := k.gate.Load()
	affinity.Unpin()
	if g >= selected {
		return c, false
	}
	k.Exit(c)
	return nil, g < 0
}

// Exit withdraws one deposit from c and, if a claim is pending, wakes
// the claiming writer: it may be parked in Wait on a sum this decrement
// just zeroed. A spurious grant is harmless (the writer re-sweeps).
func (k *Kernel) Exit(c *affinity.Cell) {
	c.N.Add(-1)
	chaos.Point("epoch.offline")
	if k.gate.Load() < 0 {
		k.Wake()
	}
}

// Wake wakes a writer parked in Wait, for an owner whose drained
// predicate also covers readers registered outside the cells: RWMutex's
// last centralized reader out calls it. It stays out of line so that
// Exit, which calls it, fits the inlining budget (cost 79 of 80; with
// Queue.Grant's call in its place, 81) and the epoch RUnlock and
// Map.Get paths keep Exit inline.
//
//go:noinline
func (k *Kernel) Wake() { k.q.Grant() }

// Wait is the writer's grace period: the shared two-phase wait
// (waitq.Queue.Wait) on the kernel's queue with the owner's drained
// predicate as its try, which must include Sum() == 0 and runs once up
// front, once per poll and once per announce. The caller has Claimed;
// the claim and its Release stay the caller's. quiet reports that the
// first evaluation already held — no wait at all, the owner's
// scale-down signal. A closed done aborts the wait (a nil done never
// does). A completed wait counts as a grace period
// only while the gate's mode bit is set: an owner's cell-based mode that
// validates against a word of its own drains the same way but is not the
// epoch protocol.
func (k *Kernel) Wait(budget int32, done <-chan struct{}, drained func() bool) (quiet, aborted bool) {
	quiet = drained()
	if !quiet && k.q.Wait(budget, done, drained) {
		return false, true
	}
	if k.gate.Load()&selected != 0 {
		k.graces.Add(1)
		if quiet {
			k.quiet.Add(1)
		}
	}
	return quiet, false
}

// Cell returns the cell of processor index p, as affinity.Pin reports
// it: Enter's own selection, and how a reader that could not carry
// Enter's cell to its Exit finds one (pin, Cell, unpin, Exit). Cells hold
// deltas, so exiting through a different cell than the one entered — a
// migrated reader — is sound.
func (k *Kernel) Cell(p int) *affinity.Cell {
	cells := k.cells.Built()
	return &cells[p&(len(cells)-1)]
}

// Build creates the cells without touching the gate: the owner is about
// to publish a mode whose readers deposit in them (through Cell) but
// validate against a word of the owner's own. From here on Claim and
// Release take effect, Sum sweeps, and Exit wakes a claiming writer.
func (k *Kernel) Build() { k.cells.Build(0) }

// Claim places the writer's claim on the gate, before the caller's Wait.
// A no-op until the cells exist — no reader can be registered, and
// a writer of an owner that never built them pays one load. Once they
// exist every writer claims, whatever mode is selected: a reader that
// observed a cell-based mode may deposit arbitrarily late.
func (k *Kernel) Claim() {
	if k.cells.Built() != nil {
		k.gate.Store(k.gate.Load() | claim)
	}
}

// Release retracts the claim — at the writer's release, or when a
// cancelled or failed acquisition undoes its transient claim.
func (k *Kernel) Release() {
	if k.cells.Built() != nil {
		k.gate.Store(k.gate.Load() &^ claim)
	}
}

// Claimed reports whether a claim is on the gate: what a refused reader
// waits out before it enters again.
func (k *Kernel) Claimed() bool { return k.gate.Load() < 0 }

// Select raises (building the cells first) or lowers the gate's mode
// bit. The caller has writer exclusion — or an unshared owner — and
// commits its engine afterwards, so the order every site gets is cells
// built → bit set → mode published, and a reader that observed the mode
// finds both. claimed says the caller is a writer still inside its
// critical section: its Claim may have been the no-op that predates the
// cells, so the claim is raised in the same store as the mode bit —
// otherwise a reader still carrying the epoch mode from an earlier era
// could validate against a selected, unclaimed gate while the writer is
// inside.
func (k *Kernel) Select(on, claimed bool) {
	g := k.gate.Load() &^ selected
	if on {
		k.cells.Build(0)
		g |= selected
	}
	if claimed {
		g |= claim
	}
	k.gate.Store(g)
}

// Sum sweeps the cells; zero until they exist. Under a claim, zero
// proves no reader is registered (see the package comment); a negative
// sum proves an Exit that never entered, which is for the caller to
// judge — caller misuse for RWMutex's RUnlock, a package bug for Map.
func (k *Kernel) Sum() int64 { return k.cells.Sum() }

// Cells returns the cell count, zero until the cells exist.
func (k *Kernel) Cells() int { return len(k.cells.Built()) }

// Waiters returns the number of writers parked in Wait (at most one: the
// owner serializes writers).
func (k *Kernel) Waiters() int { return k.q.Len() }

// Graces returns the number of completed grace periods: Waits that
// finished while the epoch mode was selected.
func (k *Kernel) Graces() uint64 { return k.graces.Load() }

// QuietGraces returns how many of them found no reader at all.
func (k *Kernel) QuietGraces() uint64 { return k.quiet.Load() }

// Check verifies the kernel's quiescent-state invariants: no claim is
// left on the gate, the mode bit agrees with the caller's mode, the cell
// deltas sum to zero (any residue, positive or negative, is the
// violation here), and no writer is parked on a queue that is
// structurally sound. It returns the first violation found, or nil.
func (k *Kernel) Check(wantSelected bool) error {
	g := k.gate.Load()
	if g < 0 {
		return fmt.Errorf("epoch gate carries a writer claim at quiescence (gate %#x)", uint64(g))
	}
	if got := g&selected != 0; got != wantSelected {
		return fmt.Errorf("epoch gate mode bit %v disagrees with the selected mode (want %v)", got, wantSelected)
	}
	if sum := k.Sum(); sum != 0 {
		return fmt.Errorf("epoch cell deltas sum to %d at quiescence, want 0", sum)
	}
	if n := k.q.Len(); n != 0 {
		return fmt.Errorf("epoch grace queue has %d waiters at quiescence", n)
	}
	if err := k.q.Check(); err != nil {
		return fmt.Errorf("epoch grace queue: %w", err)
	}
	return nil
}
