package core

import (
	"repro/internal/machine"
	"repro/internal/memsys"
	"repro/internal/spinlock"
	"repro/reactive/modal"
)

// Queue-node status values.
const (
	stWaiting uint64 = 0
	stGo      uint64 = 1
	stInvalid uint64 = 2
)

// invalidTail marks the queue lock's tail pointer invalid: another
// protocol is the valid one. The tail pointer is the queue protocol's
// consensus object; the TTS flag is the TTS protocol's consensus object
// (Section 3.3.1) — an invalid lock is simply left in a busy/invalid
// state, removing any separate valid-bit check from the common path.
const invalidTail = ^uint64(0)

// invQueue is the invalidatable MCS queue of Figure 3.29 — the queue
// protocol's consensus object, its release, and the two operations a
// protocol change performs on it — together with the bookkeeping of a
// completed change. The reactive spin lock and the reactive fetch-and-op
// both embed it: their queue protocols are this one algorithm.
type invQueue struct {
	tail machine.Addr // MCS tail: 0 empty, invalidTail invalid, else node

	mem       *memsys.System
	nodes     []spinlock.QNode
	modeNames []string // the owner's mode names, for history checking

	// Changes counts protocol changes performed.
	Changes uint64

	// Check optionally records protocol changes for C-serial verification.
	Check *HistoryChecker
}

// newInvQueue allocates the tail word on node home, initially invalid.
func newInvQueue(mem *memsys.System, home int, modeNames []string) invQueue {
	q := invQueue{
		tail:      mem.Alloc(home, 1),
		mem:       mem,
		nodes:     make([]spinlock.QNode, mem.Config().NumNodes),
		modeNames: modeNames,
	}
	mem.Poke(q.tail, invalidTail)
	return q
}

func (q *invQueue) node(proc int) spinlock.QNode {
	if q.nodes[proc].Base == 0 {
		q.nodes[proc] = spinlock.NewQNode(q.mem, proc)
	}
	return q.nodes[proc]
}

// releaseQueue is the MCS release (Figure 3.28's release_queue), using the
// fetch&store-only race resolution.
func (q *invQueue) releaseQueue(c machine.Context, i spinlock.QNode) {
	c.Advance(4) // successor-check bookkeeping
	next := c.Read(i.Next())
	if next == 0 {
		oldTail := c.FetchAndStore(q.tail, 0)
		if oldTail == uint64(i.Base) {
			return
		}
		usurper := c.FetchAndStore(q.tail, oldTail)
		for next = c.Read(i.Next()); next == 0; next = c.Read(i.Next()) {
			c.Advance(2)
		}
		if usurper != 0 && usurper != invalidTail {
			c.Write(spinlock.QNode{Base: memsys.Addr(usurper)}.Next(), next)
			return
		}
		c.Write(spinlock.QNode{Base: memsys.Addr(next)}.Status(), stGo)
		return
	}
	c.Write(spinlock.QNode{Base: memsys.Addr(next)}.Status(), stGo)
}

// finishChange records bookkeeping for a completed protocol change,
// validating the transition against the owner's modal table (its decider
// d panics on an edge the table does not permit — for the fetch-and-op,
// a TTS↔tree shortcut). The changer holds both protocols' consensus
// objects across the transition, so from other processes' perspective
// the validity swap is atomic; it is recorded at a single serialization
// instant (the completion time).
func (q *invQueue) finishChange(c machine.Context, d *modal.Decider, from, to uint64) {
	q.Changes++
	d.Switched(modal.Mode(from), modal.Mode(to))
	if q.Check != nil {
		now := c.Now()
		q.Check.RecordValidity(q.modeNames[from], now, false, c.ProcID())
		q.Check.RecordValidity(q.modeNames[to], now, true, c.ProcID())
		q.Check.RecordInterval(q.modeNames[from], ChangeInterval, c.ProcID(), now, now)
		q.Check.RecordInterval(q.modeNames[to], ChangeInterval, c.ProcID(), now, now)
	}
}

// acquireInvalidQueue is Figure 3.29's acquire_invalid_queue: take
// ownership of the invalid queue (tail must be INVALID or point to the
// tail of an invalid queue). On return, this process is the queue holder.
func (q *invQueue) acquireInvalidQueue(c machine.Context, i spinlock.QNode) {
	for {
		c.Write(i.Next(), 0)
		pred := c.FetchAndStore(q.tail, uint64(i.Base))
		if pred == invalidTail {
			return
		}
		// Got onto the tail of an invalid queue: wait for the INVALID
		// signal and retry.
		c.Write(i.Status(), stWaiting)
		c.Write(spinlock.QNode{Base: memsys.Addr(pred)}.Next(), uint64(i.Base))
		for c.Read(i.Status()) == stWaiting {
			c.Advance(2)
		}
	}
}

// invalidateQueue is Figure 3.29's invalidate_queue: mark the tail invalid
// and signal INVALID to every node from head through the old tail. Called
// only by a process that owns the queue (validly or invalidly).
func (q *invQueue) invalidateQueue(c machine.Context, head spinlock.QNode) {
	tail := c.FetchAndStore(q.tail, invalidTail)
	cur := head
	for uint64(cur.Base) != tail {
		var next uint64
		for next = c.Read(cur.Next()); next == 0; next = c.Read(cur.Next()) {
			c.Advance(2)
		}
		c.Write(cur.Status(), stInvalid)
		cur = spinlock.QNode{Base: memsys.Addr(next)}
	}
	c.Write(cur.Status(), stInvalid)
}
