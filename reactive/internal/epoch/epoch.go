// Package epoch is the grace-period kernel behind the epoch modes of
// package reactive: RWMutex's third reader-registration protocol and
// Map's published-table protocol are both this one userspace-RCU-style
// machine, written down once (DESIGN.md §8 is its proof). RWMutex's
// sharded registration borrows the cells and the exit (Build, Cell,
// Exit) and validates its deposit against a word of RWMutex's own, which
// the same writers claim alongside the gate — the proof with that word
// read for "the gate".
//
// The machine has two sides. Readers Enter and Exit: a reader deposits
// +1 in its processor's padded cell, validates the deposit against one
// shared gate word it loads but never stores, and later withdraws it —
// so an epoch read writes nothing outside its own per-P cell. A writer
// (the owner serializes writers) Claims the gate, waits until Sum reads
// zero — the grace period: every reader that validated before the claim
// has exited — does its work, and Releases. Readers arriving under a
// claim are refused; what they do instead (park, take a lock) is the
// owner's business, as is how the writer waits (the owner runs its own
// waitq.Queue.Wait over Sum and grants into it when Exit reports a
// pending claim).
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
// its own, or has announced itself and gets the owner's grant
// (announce-then-check, DESIGN.md §5).
package epoch

import (
	"fmt"
	"sync/atomic"

	"repro/reactive/internal/affinity"
	"repro/reactive/internal/chaos"
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
// cells, and the grace-period counters. The zero value is an unselected
// kernel with no cells; a Kernel must not be copied after first use.
type Kernel struct {
	gate  atomic.Int64
	cells affinity.Cells

	graces, quiet atomic.Uint64
}

// Enter attempts one reader registration: pin, deposit +1 in this P's
// cell, validate against the gate that the epoch mode is selected and no
// claim is in place, unpin. On success it returns the cell, which the
// reader hands back to Exit (or re-derives with Cell). A refused Enter
// has already undone its deposit and returns a nil cell plus Exit's
// report. The deposit and the validation run pinned (no user code), so
// preemption cannot widen the window in which a sweeping writer sees a
// deposit whose validation is still pending.
//
// Enter may be called only after the owner has observed the epoch mode,
// which Select publishes after building the cells.
func (k *Kernel) Enter() (c *affinity.Cell, claimed bool) {
	c = k.Cell(affinity.Pin())
	c.N.Add(1)
	chaos.PinnedPoint("epoch.stamp")
	ok := k.gate.Load() >= selected
	affinity.Unpin()
	if ok {
		return c, false
	}
	return nil, k.Exit(c)
}

// Exit withdraws one deposit from c and reports whether a claim is
// pending, in which case the caller must grant into its grace-wait
// queue: the claiming writer may be parked on a sum this decrement just
// zeroed. A spurious grant is harmless (the writer re-sweeps).
func (k *Kernel) Exit(c *affinity.Cell) (claimed bool) {
	c.N.Add(-1)
	chaos.Point("epoch.offline")
	return k.gate.Load() < 0
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
// Release take effect and Sum sweeps.
func (k *Kernel) Build() { k.cells.Build(0) }

// Claim places the writer's claim on the gate, before the caller's first
// Sum. A no-op until the cells exist — no reader can be registered, and
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

// Grace records one completed grace period — a claim whose sweep reached
// zero while the epoch mode was selected; quiet says the first sweep
// already read zero, the owner's scale-down signal.
func (k *Kernel) Grace(quiet bool) {
	k.graces.Add(1)
	if quiet {
		k.quiet.Add(1)
	}
}

// Graces returns the number of completed grace periods.
func (k *Kernel) Graces() uint64 { return k.graces.Load() }

// QuietGraces returns how many of them found no reader at all.
func (k *Kernel) QuietGraces() uint64 { return k.quiet.Load() }

// Check verifies the kernel's quiescent-state invariants: no claim is
// left on the gate, the mode bit agrees with the caller's mode, and the
// cell deltas sum to zero (any residue, positive or negative, is the
// violation here). It returns the first violation found, or nil.
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
	return nil
}
