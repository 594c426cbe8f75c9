package reactive

import "fmt"

// This file is the runtime invariant layer: CheckInvariants methods
// verifying, at quiescence, the structural properties each primitive's
// correctness argument rests on. "At quiescence" means no goroutine is
// inside any method of the primitive — the checks read multi-word state
// without synchronizing against active fast paths, so a concurrent call
// can report transient states (a parked waiter mid-handoff, a harvested
// cell mid-fold) as violations. Tests and the torture harness
// (internal/torture) call them after their worker fleets join; they are
// diagnostic surface, not production code, and the fast paths never pay
// for them. Mutex's sits in reactive.go, beside the spin/park table only
// Mutex runs on.

// CheckInvariants verifies the RWMutex's quiescent-state invariants:
// the embedded writer mutex is free and sound, no reader is registered
// in either registration structure (central count zero, and the epoch
// kernel's own check: no writer claim on the gate, its mode bit agreeing
// with the registration engine, and the cell deltas of the sharded and
// epoch modes summing to zero — any residue, positive or negative, is the
// violation there, unlike under a writer's claim, where cellsDrained
// reads a negative sum as caller misuse), and both waiter queues are
// empty and structurally sound. It returns the first violation found,
// or nil.
func (rw *RWMutex) CheckInvariants() error {
	if err := rw.w.CheckInvariants(); err != nil {
		return fmt.Errorf("reactive: RWMutex writer mutex: %w", err)
	}
	if r := rw.readerCount.Load(); r != 0 {
		return fmt.Errorf("reactive: RWMutex readerCount %d at quiescence, want 0", r)
	}
	if err := rw.ek.Check(rw.reng.Mode() == rEpoch); err != nil {
		return fmt.Errorf("reactive: RWMutex %w", err)
	}
	if n := rw.rq.Len(); n != 0 {
		return fmt.Errorf("reactive: RWMutex reader queue has %d waiters at quiescence", n)
	}
	if err := rw.rq.Check(); err != nil {
		return fmt.Errorf("reactive: RWMutex reader queue: %w", err)
	}
	if err := rw.reng.Check(readerShardTable); err != nil {
		return fmt.Errorf("reactive: RWMutex registration engine: %w", err)
	}
	return nil
}

// CheckInvariants verifies the accumulator's quiescent-state
// invariants: the sweep lock is free, no reader is parked on the sweep
// window, and the modal engine is in a known mode with its policy lock
// free.
// (Cell contents are NOT required to be empty — deposits legitimately
// rest in cells until the next reconciling sweep; Value is the
// correctness check for them.) It returns the first violation found,
// or nil.
func (f *FetchOp) CheckInvariants() error {
	if f.sweepLock.Held() {
		return fmt.Errorf("reactive: FetchOp sweep lock held at quiescence")
	}
	if n := f.vq.Len(); n != 0 {
		return fmt.Errorf("reactive: FetchOp has %d sweep waiters at quiescence", n)
	}
	if err := f.vq.Check(); err != nil {
		return fmt.Errorf("reactive: FetchOp sweep queue: %w", err)
	}
	if err := f.eng.Check(fopTable); err != nil {
		return fmt.Errorf("reactive: FetchOp engine: %w", err)
	}
	if f.pending.Load() < 0 {
		return fmt.Errorf("reactive: FetchOp pending count %d, want >= 0", f.pending.Load())
	}
	return nil
}

// CheckInvariants verifies the counter's quiescent-state invariants;
// see FetchOp.CheckInvariants.
func (c *Counter) CheckInvariants() error { return c.f.CheckInvariants() }
