package core

import (
	"repro/internal/fetchop"
	"repro/internal/machine"
	"repro/internal/memsys"
	"repro/internal/spinlock"
	"repro/reactive/modal"
)

// fopTree is the fetch-and-op's third mode value and table index, above
// the pair's modeTTS and modeQueue.
const fopTree = 2

// reactiveTreePatience is the combining window of the reactive algorithm's
// tree. It is much longer than the passive tree's default: a fresh tree
// epoch inherits the queue protocol's serialized arrival pattern, and a
// wide window is what re-synchronizes those arrivals into combinable
// batches (tuning experiment in EXPERIMENTS.md). Solo climbers only pay
// this window while the tree is the selected protocol, which the
// combining-rate monitor ends quickly under low contention.
const reactiveTreePatience machine.Time = 800

// fopTable is the fetch-and-op's 3-mode chain, TTS ↔ queue ↔ tree: the
// algorithm scales one protocol at a time. The residuals are the costs fed
// to the competitive policy: 200 cycles for a queue that should be a tree,
// 20 for every other sub-optimal choice.
var fopTable = modal.NewTable(
	[]modal.Step{{Residual: 20}, {Residual: 200}},
	[]modal.Step{{Residual: 20}, {Residual: 20}})

// ReactiveFetchOp is the reactive fetch-and-op algorithm of Appendix C. It
// selects among three protocols, in increasing order of scalability and
// zero-contention cost:
//
//  1. a central variable protected by a test-and-test-and-set lock,
//  2. a central variable protected by an MCS queue lock,
//  3. the software combining tree.
//
// Consensus objects: the two locks (left busy when invalid; the queue tail
// additionally uses the INVALID sentinel) and the combining tree's root
// (guarded by the root lock, with an explicit valid word). All three
// protocols share one central value word, so protocol changes need no state
// copying (the "common location" optimization of Section 3.3.2).
//
// Unlike the reactive lock there is no optimistic test&set: that would
// serialize accesses under high contention and negate the combining tree's
// parallelism, so dispatch always reads the mode variable first. Policy,
// TTSRetryLimit, EmptyQueueLimit and Changes are the pair's fields.
type ReactiveFetchOp struct {
	lockPair // the TTS and queue protocols: the reactive spin lock's own

	central   machine.Addr // the fetch-and-op variable (shared by protocols)
	treeValid machine.Addr // combining-tree valid bit (root lock guards it)
	tree      *fetchop.CombTree

	// Detection thresholds beyond the pair's.
	QueueWaitLimit machine.Time // queue waiting time before QUEUE→TREE
	// CombineRateMin is the moving-average ops-per-root-visit below which
	// the combining tree is judged under-utilized and retired to the
	// queue protocol (the combining-rate monitor of Section 3.3.2).
	CombineRateMin float64

	combineEMA float64 // moving average of ops reaching the root together
}

// NewReactiveFetchOp builds a reactive fetch-and-op homed on node home with
// a combining tree of nleaves leaves. Initial state: TTS mode; queue and
// tree invalid.
func NewReactiveFetchOp(mem *memsys.System, home int, nleaves int) *ReactiveFetchOp {
	f := &ReactiveFetchOp{QueueWaitLimit: 2400, CombineRateMin: 1.3}
	f.init(mem, home, fopTable)
	f.central = mem.Alloc(home, 1)
	f.treeValid = mem.Alloc(home, 1)
	f.tree = fetchop.NewCombTree(mem, nleaves, reactiveTreePatience)
	// The reactive algorithm interposes on the tree's root action: check
	// validity, apply to the shared central variable, monitor the
	// combining rate, and perform TREE→QUEUE changes in-consensus.
	f.tree.RootApply = f.rootApply
	return f
}

// Name implements fetchop.FetchOp.
func (f *ReactiveFetchOp) Name() string { return "reactive-fop" }

// Value returns the current counter value (test use).
func (f *ReactiveFetchOp) Value() uint64 { return f.mem.Peek(f.central) }

// FetchAdd implements fetchop.FetchOp: the top-level dispatch of Figure C.3.
// A protocol that turns out invalid, or is retired while the process
// waits in it, sends the process back here to read the mode word again.
func (f *ReactiveFetchOp) FetchAdd(c machine.Context, delta uint64) uint64 {
	for {
		switch c.Read(f.mode) {
		case modeTTS:
			if v, ok := f.tryTTS(c, delta); ok {
				return v
			}
		case modeQueue:
			if v, ok := f.tryQueue(c, delta); ok {
				return v
			}
		default:
			if v, ok := f.tree.TryFetchAdd(c, delta); ok {
				return v
			}
		}
		c.Advance(2)
	}
}

// apply performs the operation on the central word; the caller holds the
// valid protocol's consensus object.
func (f *ReactiveFetchOp) apply(c machine.Context, delta uint64) uint64 {
	old := c.Read(f.central)
	c.Write(f.central, old+delta)
	return old
}

// tryTTS runs the TTS-lock-based protocol (Figure C.4). ok=false means the
// mode changed while waiting and the dispatch must retry.
func (f *ReactiveFetchOp) tryTTS(c machine.Context, delta uint64) (uint64, bool) {
	held, calm, change := f.spinTTS(c)
	if !held {
		return 0, false
	}
	// In-consensus: lock free implies protocol valid.
	old := f.apply(c, delta)
	if calm {
		f.d.Optimal(modeTTS, modeQueue)
	}
	if change {
		f.changeToQueue(c, f.Node(c.ProcID()), modeTTS)
	} else {
		c.Write(f.tts, 0)
	}
	return old, true
}

// tryQueue runs the MCS-queue-lock-based protocol (Figure C.4). Each
// execution sends the policy one event.
func (f *ReactiveFetchOp) tryQueue(c machine.Context, delta uint64) (uint64, bool) {
	i := f.Node(c.ProcID())
	held, empty, since := f.enqueue(c, i)
	if !held {
		return 0, false
	}
	// In-consensus: we hold the queue lock.
	old := f.apply(c, delta)
	waited := c.Now() - since
	switch {
	case empty:
		if f.emptyQueueVote(c.ProcID()) {
			f.changeQueueToTTS(c, i)
			return old, true
		}
	case waited > f.QueueWaitLimit:
		// The FIFO wait time estimates contention; too long means the
		// combining tree would do better (Section 3.3.2).
		if f.d.Suboptimal(modeQueue, fopTree) {
			f.changeQueueToTree(c, i)
			return old, true
		}
	default:
		f.d.Optimal(modeQueue, fopTree)
	}
	f.Handoff(c, i, invalidTail)
	return old, true
}

// rootApply is installed as the combining tree's root action: it runs with
// the root lock held (the tree's consensus object). It checks validity,
// applies the combined operation to the shared central variable, monitors
// the combining rate, and performs the TREE→QUEUE change in-consensus.
func (f *ReactiveFetchOp) rootApply(c machine.Context, combined uint64, ops int) (uint64, bool) {
	if c.Read(f.treeValid) == 0 {
		return 0, false
	}
	old := f.apply(c, combined)
	f.combineEMA = 0.9*f.combineEMA + 0.1*float64(ops)
	if f.combineEMA < f.CombineRateMin {
		if f.d.Suboptimal(fopTree, modeQueue) {
			c.Write(f.treeValid, 0)
			f.changeToQueue(c, f.Node(c.ProcID()), fopTree)
		}
	} else {
		f.d.Optimal(fopTree, modeQueue)
	}
	return old, true
}

// changeQueueToTree performs the QUEUE→TREE change; the caller holds the
// valid queue lock. It validates the tree under its root lock, then
// retires the queue: waiters get INVALID and re-dispatch to the tree. The
// change serializes before the root lock's release, since from there a
// tree operation may retire the tree while the queue is still being
// invalidated.
func (f *ReactiveFetchOp) changeQueueToTree(c machine.Context, i spinlock.QNode) {
	f.tree.LockRoot(c)
	c.Write(f.treeValid, 1)
	f.finishChange(c, modeQueue, fopTree)
	f.tree.UnlockRoot(c)
	c.Write(f.mode, fopTree)
	f.invalidateQueue(c, i)
}
