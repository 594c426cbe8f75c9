package core

import (
	"repro/internal/fetchop"
	"repro/internal/machine"
	"repro/internal/memsys"
	"repro/internal/spinlock"
	"repro/reactive/modal"
	"repro/reactive/policy"
)

// Fetch-and-op mode values. They double as the modal.Mode indices of the
// fetch-and-op's 3-mode transition table.
const (
	fopTTS   uint64 = 0
	fopQueue uint64 = 1
	fopTree  uint64 = 2
)

// fopModeName names the fetch-and-op's modes for history checking.
var fopModeName = [...]string{fopTTS: "tts", fopQueue: "queue", fopTree: "tree"}

// reactiveTreePatience is the combining window of the reactive algorithm's
// tree. It is much longer than the passive tree's default: a fresh tree
// epoch inherits the queue protocol's serialized arrival pattern, and a
// wide window is what re-synchronizes those arrivals into combinable
// batches (tuning experiment in EXPERIMENTS.md). Solo climbers only pay
// this window while the tree is the selected protocol, which the
// combining-rate monitor ends quickly under low contention.
const reactiveTreePatience machine.Time = 800

// Policy directions for the reactive fetch-and-op: 0 = toward a more
// scalable protocol (TTS→QUEUE or QUEUE→TREE), 1 = toward a cheaper one.
const (
	dirScalable policy.Direction = 0
	dirCheap    policy.Direction = 1
)

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
// parallelism, so dispatch always reads the mode variable first.
type ReactiveFetchOp struct {
	mode      machine.Addr
	tts       machine.Addr // TTS lock: 0 free, 1 busy/invalid
	invQueue               // the queue protocol: tail word, queue nodes, change bookkeeping
	central   machine.Addr // the fetch-and-op variable (shared by protocols)
	treeValid machine.Addr // combining-tree valid bit (root lock guards it)

	tree *fetchop.CombTree

	bo   spinlock.Backoff
	mean []machine.Time

	// Policy decides when to act on detected sub-optimality.
	Policy policy.Policy

	// Detection thresholds.
	TTSRetryLimit   int          // failed test&sets before TTS→QUEUE
	EmptyQueueLimit int          // consecutive empty queues before QUEUE→TTS
	QueueWaitLimit  machine.Time // queue waiting time before QUEUE→TREE
	// CombineRateMin is the moving-average ops-per-root-visit below which
	// the combining tree is judged under-utilized and retired to the
	// queue protocol (the combining-rate monitor of Section 3.3.2).
	CombineRateMin float64

	// Residual costs for the competitive policy.
	ResidualCheap    uint64
	ResidualScalable uint64

	emptyStreak []int
	combineEMA  float64 // moving average of ops reaching the root together

	// d routes detection events and transition validation through the
	// shared modal-object state machine. The N=3 chain TTS ↔ queue ↔
	// tree has no shortcut edges: the algorithm scales one protocol at a
	// time, and the decider enforces it.
	d      *modal.Decider
	dResid [2]uint64 // residuals the current table was built with
}

// dec returns the fetch-and-op's modal decider over its 3-mode
// transition table, rebuilding the table whenever the exported
// Residual* tunables have changed so live tuning keeps working as it
// did when residuals were read per call.
func (f *ReactiveFetchOp) dec() *modal.Decider {
	resid := [2]uint64{f.ResidualCheap, f.ResidualScalable}
	if f.d == nil || f.dResid != resid {
		f.dResid = resid
		f.d = modal.NewDecider(modal.NewTable(3, []modal.Transition{
			{From: modal.Mode(fopTTS), To: modal.Mode(fopQueue), Dir: dirScalable, Residual: f.ResidualCheap},
			{From: modal.Mode(fopQueue), To: modal.Mode(fopTTS), Dir: dirCheap, Residual: f.ResidualCheap},
			{From: modal.Mode(fopQueue), To: modal.Mode(fopTree), Dir: dirScalable, Residual: f.ResidualScalable},
			{From: modal.Mode(fopTree), To: modal.Mode(fopQueue), Dir: dirCheap, Residual: f.ResidualCheap},
		}), &f.Policy)
	}
	return f.d
}

// NewReactiveFetchOp builds a reactive fetch-and-op homed on node home with
// a combining tree of nleaves leaves.
func NewReactiveFetchOp(mem *memsys.System, home int, nleaves int) *ReactiveFetchOp {
	procs := mem.Config().NumNodes
	f := &ReactiveFetchOp{
		mode:             mem.Alloc(home, 1),
		tts:              mem.Alloc(home, 1),
		invQueue:         newInvQueue(mem, home, fopModeName[:]),
		central:          mem.Alloc(home, 1),
		treeValid:        mem.Alloc(home, 1),
		tree:             fetchop.NewCombTree(mem, nleaves, reactiveTreePatience),
		bo:               spinlock.DefaultBackoff,
		mean:             make([]machine.Time, procs),
		Policy:           policy.AlwaysSwitch{},
		TTSRetryLimit:    3,
		EmptyQueueLimit:  4,
		QueueWaitLimit:   2400,
		CombineRateMin:   1.3,
		ResidualCheap:    20,
		ResidualScalable: 200,
		emptyStreak:      make([]int, procs),
	}
	// Initial state: TTS mode; queue and tree invalid.
	mem.Poke(f.mode, fopTTS)
	mem.Poke(f.tts, 0)
	mem.Poke(f.treeValid, 0)
	// The reactive algorithm interposes on the tree's root action: check
	// validity, apply to the shared central variable, monitor the
	// combining rate, and perform TREE→QUEUE changes in-consensus.
	f.tree.RootApply = f.rootApply
	return f
}

// Name implements fetchop.FetchOp.
func (f *ReactiveFetchOp) Name() string { return "reactive-fop" }

// Mode returns the current protocol hint (test use).
func (f *ReactiveFetchOp) Mode() uint64 { return f.mem.Peek(f.mode) }

// Value returns the current counter value (test use).
func (f *ReactiveFetchOp) Value() uint64 { return f.mem.Peek(f.central) }

// FetchAdd implements fetchop.FetchOp: the top-level dispatch of Figure C.3.
func (f *ReactiveFetchOp) FetchAdd(c machine.Context, delta uint64) uint64 {
	for {
		switch c.Read(f.mode) {
		case fopTTS:
			if v, ok := f.tryTTS(c, delta); ok {
				return v
			}
		case fopQueue:
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

// tryTTS runs the TTS-lock-based protocol (Figure C.4). ok=false means the
// mode changed while waiting and the dispatch must retry.
func (f *ReactiveFetchOp) tryTTS(c machine.Context, delta uint64) (uint64, bool) {
	p := c.ProcID()
	retries := 0
	reported := false
	switchOut := false
	mean := f.mean[p]
	if mean == 0 {
		mean = f.bo.Initial
	}
	for {
		if c.Read(f.tts) == 0 && c.TestAndSet(f.tts) == 0 {
			// In-consensus: lock free implies protocol valid.
			f.mean[p] = mean / 2
			old := c.Read(f.central)
			c.Write(f.central, old+delta)
			if retries <= f.TTSRetryLimit {
				f.dec().Optimal(modal.Mode(fopTTS), modal.Mode(fopQueue))
			}
			if switchOut {
				f.changeTTSToQueue(c)
				return old, true
			}
			c.Write(f.tts, 0)
			return old, true
		}
		retries++
		if retries > f.TTSRetryLimit && !reported {
			reported = true
			if f.dec().Suboptimal(modal.Mode(fopTTS), modal.Mode(fopQueue)) {
				switchOut = true
			}
		}
		c.Advance(c.Rand().Uint64n(mean) + 1)
		if mean*2 <= f.bo.Max {
			mean *= 2
		}
		if c.Read(f.mode) != fopTTS {
			return 0, false
		}
	}
}

// tryQueue runs the MCS-queue-lock-based protocol (Figure C.4).
func (f *ReactiveFetchOp) tryQueue(c machine.Context, delta uint64) (uint64, bool) {
	p := c.ProcID()
	i := f.node(p)
	c.Advance(6) // queue-node setup bookkeeping
	enqueued := c.Now()
	c.Write(i.Next(), 0)
	pred := c.FetchAndStore(f.tail, uint64(i.Base))
	if pred == invalidTail {
		// Landed on an invalid queue: restore and retry via dispatch.
		f.invalidateQueue(c, i)
		return 0, false
	}
	if pred != 0 {
		c.Write(i.Status(), stWaiting)
		c.Write(spinlock.QNode{Base: memsys.Addr(pred)}.Next(), uint64(i.Base))
		f.emptyStreak[p] = 0
		st := c.Read(i.Status())
		for st == stWaiting {
			c.Advance(2)
			st = c.Read(i.Status())
		}
		if st != stGo {
			return 0, false // invalid signal: retry via dispatch
		}
	}
	// In-consensus: we hold the queue lock.
	old := c.Read(f.central)
	c.Write(f.central, old+delta)

	waited := c.Now() - enqueued
	if pred == 0 {
		// Empty queue: low contention.
		f.emptyStreak[p]++
		if f.emptyStreak[p] > f.EmptyQueueLimit &&
			f.dec().Suboptimal(modal.Mode(fopQueue), modal.Mode(fopTTS)) {
			f.emptyStreak[p] = 0
			f.changeQueueToTTS(c, i)
			return old, true
		}
	} else if waited > f.QueueWaitLimit {
		// The FIFO wait time estimates contention; too long means the
		// combining tree would do better (Section 3.3.2).
		if f.dec().Suboptimal(modal.Mode(fopQueue), modal.Mode(fopTree)) {
			f.changeQueueToTree(c, i)
			return old, true
		}
	} else {
		f.dec().Optimal(modal.Mode(fopQueue), modal.Mode(fopTree))
	}
	f.releaseQueue(c, i)
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
	old := c.Read(f.central)
	c.Write(f.central, old+combined)
	f.combineEMA = 0.9*f.combineEMA + 0.1*float64(ops)
	if f.combineEMA < f.CombineRateMin {
		if f.dec().Suboptimal(modal.Mode(fopTree), modal.Mode(fopQueue)) {
			f.changeTreeToQueue(c)
		}
	} else {
		f.dec().Optimal(modal.Mode(fopTree), modal.Mode(fopQueue))
	}
	return old, true
}

// --- protocol changes (each runs while holding the valid consensus object) ---

func (f *ReactiveFetchOp) changeTTSToQueue(c machine.Context) {
	i := f.node(c.ProcID())
	f.acquireInvalidQueue(c, i)
	c.Write(f.mode, fopQueue)
	f.releaseQueue(c, i) // tts stays busy (= invalid)
	f.finishChange(c, f.dec(), fopTTS, fopQueue)
}

func (f *ReactiveFetchOp) changeQueueToTTS(c machine.Context, i spinlock.QNode) {
	c.Write(f.mode, fopTTS)
	f.invalidateQueue(c, i)
	c.Write(f.tts, 0)
	f.finishChange(c, f.dec(), fopQueue, fopTTS)
}

func (f *ReactiveFetchOp) changeQueueToTree(c machine.Context, i spinlock.QNode) {
	// Validate the tree under its root lock, then retire the queue.
	f.lockWord(c, f.tree.RootLock())
	c.Write(f.treeValid, 1)
	c.Write(f.tree.RootLock(), 0)
	c.Write(f.mode, fopTree)
	f.invalidateQueue(c, i) // waiters get INVALID and re-dispatch to the tree
	f.finishChange(c, f.dec(), fopQueue, fopTree)
}

// changeTreeToQueue runs with the tree's root lock already held.
func (f *ReactiveFetchOp) changeTreeToQueue(c machine.Context) {
	c.Write(f.treeValid, 0)
	i := f.node(c.ProcID())
	f.acquireInvalidQueue(c, i)
	c.Write(f.mode, fopQueue)
	f.releaseQueue(c, i)
	f.finishChange(c, f.dec(), fopTree, fopQueue)
}

func (f *ReactiveFetchOp) lockWord(c machine.Context, a machine.Addr) {
	for {
		for c.Read(a) != 0 {
			c.Advance(2)
		}
		if c.TestAndSet(a) == 0 {
			return
		}
		c.Advance(c.Rand().Uint64n(16) + 1)
	}
}
