// Package core implements the thesis's primary contribution: reactive
// synchronization algorithms that dynamically select protocols.
//
// It contains (1) the protocol-selection framework of Section 3.2 —
// protocol objects, the concurrent protocol manager, consensus objects, and
// a C-serializability checker — and the generic selectable locks of
// Appendix B built from unmodified components; (2) lockPair, the TTS and
// invalidatable-queue protocols of Section 3.7.3 with their monitoring and
// the two changes between them; (3) the reactive spin lock, which is that
// pair; and (4) the reactive fetch-and-op of Appendix C, which is that
// pair around a central word plus the combining tree.
package core

import (
	"repro/internal/machine"
	"repro/internal/spinlock"
)

// ProtocolObject is the specification of Figure 3.5: a synchronization
// protocol wrapped with validity operations so a protocol manager can
// select among several protocols.
//
// DoProtocol runs the protocol; ok=false signals that the protocol was
// invalid (the execution is a no-op logically) and the manager must retry.
// Invalidate marks the object invalid, returning true only if it was valid
// (at most one caller wins). Validate resets the protocol to a consistent
// state representing the synchronization object's current state and marks
// it valid. IsValid is a hint used for dispatch.
type ProtocolObject interface {
	DoProtocol(c machine.Context, arg uint64) (uint64, bool)
	Invalidate(c machine.Context) bool
	Validate(c machine.Context)
	IsValid(c machine.Context) bool
}

// Manager is the concurrent protocol manager of Figure 3.6, generalized to
// any number of protocol objects. DoSynchOp returns results only from valid
// protocol executions; DoChange preserves the invariant that at most one
// protocol object is valid (assuming exactly one is valid initially).
type Manager struct {
	Objs []ProtocolObject
}

// DoSynchOp performs the synchronization operation, retrying until some
// valid protocol execution succeeds.
func (m *Manager) DoSynchOp(c machine.Context, arg uint64) uint64 {
	for {
		for _, o := range m.Objs {
			if !o.IsValid(c) {
				continue
			}
			if v, ok := o.DoProtocol(c, arg); ok {
				return v
			}
			break // validity hint was stale; rescan
		}
		c.Advance(2)
	}
}

// DoChange switches the valid protocol to Objs[target]. It invalidates the
// currently valid object and validates the target; if the target was
// already valid, nothing happens.
func (m *Manager) DoChange(c machine.Context, target int) {
	for i, o := range m.Objs {
		if i == target {
			continue
		}
		if o.Invalidate(c) {
			m.Objs[target].Validate(c)
			return
		}
	}
}

// --- Naive lock-based protocol object (Figure 3.7) ---
//
// The straightforward implementation serializes *every* operation with one
// lock. It is correct but (a) serializes protocol executions, (b) adds an
// acquire/release to every synchronization operation, and (c) is useless
// for building reactive locks. It exists as the framework's reference
// implementation and as the ablation baseline against consensus objects.

// NaiveObject wraps a protocol with a test-and-set lock that brackets every
// operation (Figure 3.7): a ConsensusObject every operation passes through,
// where Figure 3.11's protocols pass through it once.
type NaiveObject struct {
	co *ConsensusObject

	// Run executes the underlying protocol (called with the lock held).
	Run func(c machine.Context, arg uint64) uint64
	// Update resets the protocol to a consistent state before validation.
	Update func(c machine.Context)
}

// NewNaiveObject allocates the object's lock and valid flag on node home.
func NewNaiveObject(m *machine.Machine, home int, valid bool) *NaiveObject {
	return &NaiveObject{co: NewConsensusObject(m, home, valid)}
}

// DoProtocol implements ProtocolObject.
func (o *NaiveObject) DoProtocol(c machine.Context, arg uint64) (uint64, bool) {
	o.co.Acquire(c)
	defer o.co.Release(c)
	if !o.co.Valid(c) {
		return 0, false
	}
	return o.Run(c, arg), true
}

// Invalidate implements ProtocolObject.
func (o *NaiveObject) Invalidate(c machine.Context) bool {
	o.co.Acquire(c)
	defer o.co.Release(c)
	if !o.co.Valid(c) {
		return false
	}
	o.co.SetValid(c, false)
	return true
}

// Validate implements ProtocolObject.
func (o *NaiveObject) Validate(c machine.Context) {
	o.co.Acquire(c)
	defer o.co.Release(c)
	if !o.co.Valid(c) {
		if o.Update != nil {
			o.Update(c)
		}
		o.co.SetValid(c, true)
	}
}

// IsValid implements ProtocolObject.
func (o *NaiveObject) IsValid(c machine.Context) bool { return o.co.Valid(c) }

// --- Consensus-object-based protocol object (Figure 3.11) ---
//
// Protocols with a consensus object — a unique object some synchronizing
// process must access atomically exactly once to complete the protocol —
// admit concurrent protocol executions while still serializing protocol
// changes (C-serializability, Definition 2). The canonical protocol shape
// is:
//
//	if PreConsensus() { AcquireConsensus; InConsensus; ReleaseConsensus }
//	else              { WaitConsensus }
//	PostConsensus
//
// ConsensusObject below packages the atomic-access part: a test-and-set
// lock guarding a valid bit. Protocol changes acquire it; executions pass
// through it exactly once.

// ConsensusObject is a lockable valid bit in simulated memory.
type ConsensusObject struct {
	lock  machine.Addr
	valid machine.Addr
}

// NewConsensusObject allocates a consensus object on node home.
func NewConsensusObject(m *machine.Machine, home int, valid bool) *ConsensusObject {
	o := &ConsensusObject{
		lock:  m.Mem.Alloc(home, 1),
		valid: m.Mem.Alloc(home, 1),
	}
	if valid {
		m.Mem.Poke(o.valid, 1)
	}
	return o
}

// Acquire obtains atomic access to the consensus object.
func (o *ConsensusObject) Acquire(c machine.Context) { spinlock.AcquireWord(c, o.lock, 32) }

// Release relinquishes atomic access.
func (o *ConsensusObject) Release(c machine.Context) { c.Write(o.lock, 0) }

// Valid reads the valid bit (call with or without atomic access; without,
// it is only a hint).
func (o *ConsensusObject) Valid(c machine.Context) bool {
	return c.Read(o.valid) != 0
}

// SetValid writes the valid bit (call only with atomic access).
func (o *ConsensusObject) SetValid(c machine.Context, v bool) {
	var w uint64
	if v {
		w = 1
	}
	c.Write(o.valid, w)
}

// GenericObject implements ProtocolObject for any protocol expressed in the
// canonical consensus-object form. It performs the serialization argument
// of Figure 3.10 mechanically: executions that reach the consensus object
// before a change serialize before it; executions in post-consensus are
// unaffected; executions that find the object invalid fail and retry.
type GenericObject struct {
	CO *ConsensusObject

	// PreConsensus returns true if this process must enter the consensus
	// phase itself, false if it waits on another process (wait-consensus).
	PreConsensus func(c machine.Context, arg uint64) bool
	// InConsensus runs with the consensus object held and valid.
	InConsensus func(c machine.Context, arg uint64) uint64
	// WaitConsensus waits for a consensus-phase process; ok=false means an
	// invalid signal was received.
	WaitConsensus func(c machine.Context, arg uint64) (uint64, bool)
	// PostConsensus completes the protocol (ok reports validity).
	PostConsensus func(c machine.Context, arg, v uint64, ok bool) uint64
	// Update resets the protocol state before validation.
	Update func(c machine.Context)

	// Name labels the object in recorded histories.
	Name string
	// Check optionally records consensus accesses for C-serial checking.
	Check *HistoryChecker
}

// record logs one consensus-held window if checking is enabled.
func (g *GenericObject) record(c machine.Context, kind IntervalKind, start machine.Time) {
	if g.Check != nil {
		g.Check.RecordInterval(g.Name, kind, c.ProcID(), start, c.Now())
	}
}

// DoProtocol implements ProtocolObject (Figure 3.11's DoProtocol).
func (g *GenericObject) DoProtocol(c machine.Context, arg uint64) (uint64, bool) {
	if g.PreConsensus == nil || g.PreConsensus(c, arg) {
		g.CO.Acquire(c)
		start := c.Now()
		if !g.CO.Valid(c) {
			g.record(c, ExecInterval, start)
			g.CO.Release(c)
			if g.PostConsensus != nil {
				g.PostConsensus(c, arg, 0, false)
			}
			return 0, false
		}
		v := g.InConsensus(c, arg)
		g.record(c, ExecInterval, start)
		g.CO.Release(c)
		if g.PostConsensus != nil {
			v = g.PostConsensus(c, arg, v, true)
		}
		return v, true
	}
	v, ok := g.WaitConsensus(c, arg)
	if g.PostConsensus != nil {
		v = g.PostConsensus(c, arg, v, ok)
	}
	if !ok {
		return 0, false
	}
	return v, true
}

// Invalidate implements ProtocolObject (Figure 3.11's Invalidate).
func (g *GenericObject) Invalidate(c machine.Context) bool {
	g.CO.Acquire(c)
	start := c.Now()
	defer g.CO.Release(c)
	if !g.CO.Valid(c) {
		g.record(c, ChangeInterval, start)
		return false
	}
	g.CO.SetValid(c, false)
	if g.Check != nil {
		g.Check.RecordValidity(g.Name, c.Now(), false, c.ProcID())
	}
	g.record(c, ChangeInterval, start)
	return true
}

// Validate implements ProtocolObject (Figure 3.11's Validate).
func (g *GenericObject) Validate(c machine.Context) {
	g.CO.Acquire(c)
	start := c.Now()
	defer g.CO.Release(c)
	if !g.CO.Valid(c) {
		if g.Update != nil {
			g.Update(c)
		}
		g.CO.SetValid(c, true)
		if g.Check != nil {
			g.Check.RecordValidity(g.Name, c.Now(), true, c.ProcID())
		}
	}
	g.record(c, ChangeInterval, start)
}

// IsValid implements ProtocolObject.
func (g *GenericObject) IsValid(c machine.Context) bool {
	return g.CO.Valid(c)
}
