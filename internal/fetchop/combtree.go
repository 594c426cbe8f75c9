package fetchop

import (
	"repro/internal/machine"
	"repro/internal/memsys"
	"repro/internal/spinlock"
)

// Deposit-cell states (simulated words waiters spin on).
const (
	ctPending uint64 = 0 // request deposited, no result yet
	ctOK      uint64 = 1 // result delivered
	ctInvalid uint64 = 2 // protocol invalidated; retry (reactive algorithm)
)

// CombTree is a software combining tree for fetch-and-add in the style of
// Goodman, Vernon and Woest (the thesis's Appendix C). Processes climb a
// radix-2 tree from their assigned leaf toward the root. At each internal
// node a climber that finds a deposited request *combines* with it (adds
// the values and continues up, later distributing the partner's share);
// otherwise it deposits its own accumulated request and waits. A waiter
// whose deposit is not picked up within a patience window withdraws it and
// climbs alone — so a solo process pays the full tree traversal (the high
// low-contention protocol cost of Figure 3.2), while under contention
// combining parallelizes the operation and per-op overhead falls.
//
// The root is the protocol's consensus object (Section 3.3.2): exactly one
// process at a time holds the root lock and applies the combined operation.
// RootApply can be replaced to interpose validity checks; returning
// ok=false makes every process in the combined batch observe an invalid
// execution and retry (used by the reactive fetch-and-op).
type CombTree struct {
	mem      *memsys.System
	nleaves  int
	nodes    []*ctNode // heap-indexed; 1 is the root, 2..nleaves-1 internal
	central  memsys.Addr
	patience machine.Time
	reqs     []*ctReq // per-processor reusable request cells

	// RootApply performs the operation at the root while the root lock is
	// held. combined is the summed delta and ops the number of combined
	// requests reaching the root together (the combining-rate signal the
	// reactive fetch-and-op monitors). It returns the base value and
	// whether the protocol was valid.
	RootApply func(c machine.Context, combined uint64, ops int) (uint64, bool)

	// Combines counts requests that were satisfied by combining (stats).
	Combines uint64
}

type ctNode struct {
	lock    memsys.Addr
	deposit *ctReq // guarded by lock
}

// ctReq is a deposited request. The ready word lives in the depositor's
// local memory so waiting is local spinning; result is Go-side state that
// is written strictly before ready is set (the engine serializes actors,
// so the waiter cannot observe ready without result being current).
type ctReq struct {
	value  uint64
	count  int
	ready  memsys.Addr
	result uint64
}

type ctPartner struct {
	req    *ctReq
	offset uint64
}

// DefaultPatience is the combining window: how long a depositor waits to be
// combined with before withdrawing and climbing alone.
const DefaultPatience machine.Time = 160

// NewCombTree builds a combining tree with nleaves leaves (rounded up to a
// power of two, minimum 2) over the machine's memory. Node i is homed on
// node i mod NumNodes to spread directory traffic.
func NewCombTree(mem *memsys.System, nleaves int, patience machine.Time) *CombTree {
	n := nextPow2(nleaves)
	if patience == 0 {
		patience = DefaultPatience
	}
	procs := mem.Config().NumNodes
	t := &CombTree{
		mem:      mem,
		nleaves:  n,
		nodes:    make([]*ctNode, n),
		central:  mem.Alloc(0, 1),
		patience: patience,
		reqs:     make([]*ctReq, procs),
	}
	for i := 1; i < n; i++ {
		t.nodes[i] = &ctNode{lock: mem.Alloc(i%procs, 1)}
	}
	t.RootApply = func(c machine.Context, combined uint64, ops int) (uint64, bool) {
		old := c.Read(t.central)
		c.Write(t.central, old+combined)
		return old, true
	}
	return t
}

// Name implements FetchOp.
func (t *CombTree) Name() string { return "combining-tree" }

// Central returns the address of the fetch-and-op variable.
func (t *CombTree) Central() memsys.Addr { return t.central }

// LockRoot and UnlockRoot bracket atomic access to the root node — the
// consensus object — by a process that is not climbing the tree.
func (t *CombTree) LockRoot(c machine.Context)   { t.lockNode(c, t.nodes[1]) }
func (t *CombTree) UnlockRoot(c machine.Context) { t.unlockNode(c, t.nodes[1]) }

// leafParent returns the heap index of the internal node above proc's leaf.
func (t *CombTree) leafParent(proc int) int {
	leaf := t.nleaves + proc%t.nleaves
	return leaf / 2
}

func (t *CombTree) lockNode(c machine.Context, n *ctNode)   { spinlock.AcquireWord(c, n.lock) }
func (t *CombTree) unlockNode(c machine.Context, n *ctNode) { c.Write(n.lock, 0) }

// myReq returns proc's reusable request cell reset for a new operation.
func (t *CombTree) myReq(c machine.Context, v uint64, count int) *ctReq {
	p := c.ProcID()
	r := t.reqs[p]
	if r == nil {
		r = &ctReq{ready: t.mem.Alloc(p, 1)}
		t.reqs[p] = r
	}
	r.value = v
	r.count = count
	c.Write(r.ready, ctPending)
	return r
}

// FetchAdd implements FetchOp. It panics if RootApply reports invalid —
// the passive tree is always valid; the reactive algorithm uses TryFetchAdd.
func (t *CombTree) FetchAdd(c machine.Context, delta uint64) uint64 {
	v, ok := t.TryFetchAdd(c, delta)
	if !ok {
		panic("fetchop: passive combining tree invalidated")
	}
	return v
}

// TryFetchAdd executes the combining-tree protocol once. ok=false means the
// protocol was invalid at the root (reactive protocol change in progress);
// the caller must retry via its dispatch procedure.
func (t *CombTree) TryFetchAdd(c machine.Context, delta uint64) (uint64, bool) {
	v := delta
	count := 1
	var partners []ctPartner
	node := t.leafParent(c.ProcID())
	for {
		n := t.nodes[node]
		t.lockNode(c, n)
		if node == 1 {
			// In-consensus: apply the combined operation at the root.
			base, ok := t.RootApply(c, v, count)
			t.unlockNode(c, n)
			t.distribute(c, partners, base, ok)
			return base, ok
		}
		if n.deposit != nil {
			// Combine: take the waiting request along.
			req := n.deposit
			n.deposit = nil
			t.unlockNode(c, n)
			c.Advance(4)
			partners = append(partners, ctPartner{req: req, offset: v})
			v += req.value
			count += req.count
			t.Combines++
			node /= 2
			continue
		}
		// Deposit our accumulated request and wait to be combined with.
		req := t.myReq(c, v, count)
		n.deposit = req
		t.unlockNode(c, n)
		st, withdrawn := t.waitDeposit(c, n, req)
		if withdrawn {
			node /= 2
			continue
		}
		if st == ctOK {
			t.distribute(c, partners, req.result, true)
			return req.result, true
		}
		t.distribute(c, partners, 0, false)
		return 0, false
	}
}

// waitDeposit polls the request's ready word. Within the patience window an
// untaken deposit is withdrawn (withdrawn=true); once taken, the waiter is
// in the wait-consensus phase and waits indefinitely for its result or an
// invalid signal.
func (t *CombTree) waitDeposit(c machine.Context, n *ctNode, req *ctReq) (uint64, bool) {
	deadline := c.Now() + t.patience
	for c.Now() < deadline {
		if st := c.Read(req.ready); st != ctPending {
			return st, false
		}
		c.Advance(2)
	}
	t.lockNode(c, n)
	if n.deposit == req {
		n.deposit = nil
		t.unlockNode(c, n)
		return 0, true
	}
	t.unlockNode(c, n)
	for {
		if st := c.Read(req.ready); st != ctPending {
			return st, false
		}
		c.Advance(2)
	}
}

// distribute delivers results (or the invalid signal) to every combined
// partner, top-down.
func (t *CombTree) distribute(c machine.Context, partners []ctPartner, base uint64, ok bool) {
	for i := len(partners) - 1; i >= 0; i-- {
		pr := partners[i]
		if ok {
			pr.req.result = base + pr.offset
			c.Write(pr.req.ready, ctOK)
		} else {
			c.Write(pr.req.ready, ctInvalid)
		}
	}
}

// SetPatience adjusts the combining window (tuning; Section 3.7.2).
func (t *CombTree) SetPatience(p machine.Time) { t.patience = p }
