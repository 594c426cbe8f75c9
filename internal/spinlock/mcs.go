package spinlock

import (
	"repro/internal/machine"
	"repro/internal/memsys"
)

// Queue-node status values. The zero value is "waiting" so fresh simulated
// memory starts in the correct state.
const (
	QWaiting uint64 = 0
	QGo      uint64 = 1
)

// QNode is an MCS queue node in simulated memory: word 0 is the next
// pointer (an Addr, 0 = nil), word 1 the status flag a waiter spins on.
// Each processor's node lives in its local memory so waiting is local
// spinning — the property that makes queue locks scale.
type QNode struct {
	Base memsys.Addr
}

// Next returns the address of the node's next-pointer word.
func (q QNode) Next() memsys.Addr { return q.Base }

// Status returns the address of the node's status word.
func (q QNode) Status() memsys.Addr { return q.Base + 1 }

// NodeAt returns the queue node a tail or next word's value points to.
func NodeAt(word uint64) QNode { return QNode{Base: memsys.Addr(word)} }

// MCSQueue is the state and the release every MCS-style queue shares: the
// tail word, each processor's queue node, and the fetch&store-only handoff
// (Alewife has no compare&swap; the thesis uses this version, whose
// low-contention race Section 3.5.3 discusses). MCSLock is this queue with
// the plain enqueue; the reactive algorithms (internal/core) enqueue on it
// with a tail value that marks the queue invalid.
type MCSQueue struct {
	Tail  memsys.Addr // 0 empty, else the address of the last node
	nodes []QNode
	mem   *memsys.System
}

// NewMCSQueue allocates an empty queue whose tail word is homed on node home.
func NewMCSQueue(mem *memsys.System, home int) MCSQueue {
	return MCSQueue{
		Tail:  mem.Alloc(home, 1),
		nodes: make([]QNode, mem.Config().NumNodes),
		mem:   mem,
	}
}

// Node returns proc's queue node in its local memory, allocating it on
// first use.
func (q *MCSQueue) Node(proc int) QNode {
	if q.nodes[proc].Base == 0 {
		q.nodes[proc] = QNode{Base: q.mem.Alloc(proc, 2)}
	}
	return q.nodes[proc]
}

// Handoff is the MCS release by the holder whose node is i (Figure 3.28's
// release_queue). notNode is the one non-zero tail value that is not a
// queue node — the reactive queue's INVALID marker; 0 for a plain lock.
func (q *MCSQueue) Handoff(c machine.Context, i QNode, notNode uint64) {
	instr(c, 4) // successor-check bookkeeping
	next := c.Read(i.Next())
	if next == 0 {
		// No known successor: try to detach the queue.
		oldTail := c.FetchAndStore(q.Tail, 0)
		if oldTail == uint64(i.Base) {
			return // really had no successor
		}
		// Someone was enqueueing. Restore the tail; whoever swapped in
		// while the tail was nil (the "usurper") now holds the lock.
		usurper := c.FetchAndStore(q.Tail, oldTail)
		for next = c.Read(i.Next()); next == 0; next = c.Read(i.Next()) {
			instr(c, 2)
		}
		if usurper != 0 && usurper != notNode {
			// Splice our detached waiters behind the usurper.
			c.Write(NodeAt(usurper).Next(), next)
			return
		}
	}
	c.Write(NodeAt(next).Status(), QGo)
}

// MCSLock is the Mellor-Crummey–Scott list-based queue lock (Figure 3.1).
type MCSLock struct {
	q MCSQueue
}

// NewMCS allocates an MCS lock whose tail pointer is homed on node home.
func NewMCS(mem *memsys.System, home int) *MCSLock {
	return &MCSLock{q: NewMCSQueue(mem, home)}
}

// Name implements Lock.
func (l *MCSLock) Name() string { return "mcs-queue" }

// Acquire implements Lock.
func (l *MCSLock) Acquire(c machine.Context) Handle {
	instr(c, 6) // queue-node setup bookkeeping
	i := l.q.Node(c.ProcID())
	c.Write(i.Next(), 0)
	c.Write(i.Status(), QWaiting)
	pred := c.FetchAndStore(l.q.Tail, uint64(i.Base))
	if pred != 0 {
		// Link behind predecessor and spin locally.
		c.Write(NodeAt(pred).Next(), uint64(i.Base))
		for c.Read(i.Status()) != QGo {
			instr(c, 2)
		}
	}
	return i
}

// Release implements Lock.
func (l *MCSLock) Release(c machine.Context, h Handle) {
	l.q.Handoff(c, h.(QNode), 0)
}
