// Package core holds the thesis's two reactive algorithms as the simulator
// runs them: the reactive spin lock of Section 3.7.3 and the reactive
// fetch-and-op of Appendix C. Both own one lockPair — the TTS and
// invalidatable-queue protocols with their monitoring and the two changes
// between them — and the fetch-and-op adds a central word and the
// combining tree. Every protocol change passes through the pair's
// finishChange, which checks on every run that the change starts from the
// valid protocol.
package core

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/memsys"
	"repro/internal/spinlock"
	"repro/reactive/modal"
	"repro/reactive/policy"
)

// Mode values of the pair's mode word. They double as the modal.Mode
// indices of the owner's chain (the fetch-and-op adds fopTree).
const (
	modeTTS   = 0
	modeQueue = 1
)

// Queue-node status values: the MCS queue's waiting and go, plus the
// signal a protocol change sends to waiters on a retired queue.
const (
	stWaiting        = spinlock.QWaiting
	stGo             = spinlock.QGo
	stInvalid uint64 = 2
)

// invalidTail marks the queue lock's tail pointer invalid: another
// protocol is the valid one. The tail pointer is the queue protocol's
// consensus object; the TTS flag is the TTS protocol's consensus object
// (Section 3.3.1) — an invalid lock is simply left in a busy/invalid
// state, removing any separate valid-bit check from the common path.
const invalidTail = ^uint64(0)

// lockPair is the two-protocol core of Section 3.7.3: a
// test-and-test-and-set lock, an invalidatable MCS queue lock, the mode
// word that hints which to use, the monitoring of both (failed test&sets,
// empty-queue streak) and the two protocol changes between them (Figure
// 3.29). The reactive spin lock and the reactive fetch-and-op both embed
// it: their TTS and queue protocols are this one algorithm. What differs
// stays with the owner — what it does while holding the lock, when it
// reports a well-served request to the policy (spinTTS and enqueue return
// what they saw instead of reporting it), and where a process that lost
// the protocol under it goes next.
type lockPair struct {
	mode              machine.Addr // hint: the selected protocol (own cache line)
	tts               machine.Addr // TTS flag: 0 free, 1 busy or invalid
	spinlock.MCSQueue              // Tail: 0 empty, invalidTail invalid, else a node

	mem  *memsys.System
	bo   spinlock.Backoff
	mean []machine.Time // per-proc backoff state

	// Policy decides when to act on detected sub-optimality. Default:
	// policy.AlwaysSwitch.
	Policy policy.Policy

	// Detection thresholds (Section 3.7.3): switch to the queue protocol
	// after more than TTSRetryLimit failed test&sets in one acquisition;
	// switch to TTS after EmptyQueueLimit consecutive acquisitions that
	// found the queue empty.
	TTSRetryLimit   int
	EmptyQueueLimit int
	emptyStreak     []int

	// d routes detection events and transition validation through the
	// shared modal-object state machine, over the owner's table. The mode
	// itself lives in simulated memory — the decider carries the pure
	// transition logic, the memory effects stay here. The simulator's
	// event engine serializes all calls, so the unsynchronized Decider is
	// the right engine variant.
	d *modal.Decider

	// valid is the protocol that is valid, kept host-side: finishChange
	// moves it at each change's serialization point.
	valid uint64

	// Changes counts protocol changes performed.
	Changes uint64
}

// init allocates the mode word, the TTS flag and the queue tail on node
// home, in TTS mode: TTS lock free (fresh memory is zero), queue invalid.
func (l *lockPair) init(mem *memsys.System, home int, tab *modal.Table) {
	procs := mem.Config().NumNodes
	*l = lockPair{
		mode:            mem.Alloc(home, 1),
		tts:             mem.Alloc(home, 1),
		MCSQueue:        spinlock.NewMCSQueue(mem, home),
		mem:             mem,
		bo:              spinlock.DefaultBackoff,
		mean:            make([]machine.Time, procs),
		Policy:          policy.AlwaysSwitch{},
		TTSRetryLimit:   3,
		EmptyQueueLimit: 4,
		emptyStreak:     make([]int, procs),
		valid:           modeTTS,
	}
	l.d = modal.NewDecider(tab, &l.Policy)
	mem.Poke(l.Tail, invalidTail)
}

// Mode returns the current protocol hint (test use).
func (l *lockPair) Mode() uint64 { return l.mem.Peek(l.mode) }

// spinTTS is the loop of Figure 3.28's acquire_tts: test-and-test-and-set
// with randomized exponential backoff, monitoring failed test&set attempts
// (M>) and consulting the policy for a protocol change (P>). It returns
// holding the TTS lock, or with held false once the mode word names
// another protocol. calm says the acquisition stayed within TTSRetryLimit
// (the owner reports it as optimal); change says the policy asked the
// holder to perform the TTS→queue change.
func (l *lockPair) spinTTS(c machine.Context) (held, calm, change bool) {
	p := c.ProcID()
	retries := 0
	reported := false
	mean := l.mean[p]
	if mean == 0 {
		mean = l.bo.Initial
	}
	for {
		if c.Read(l.tts) == 0 && c.TestAndSet(l.tts) == 0 {
			l.mean[p] = mean / 2
			return true, retries <= l.TTSRetryLimit, change
		}
		retries++
		if retries > l.TTSRetryLimit && !reported {
			// Contention detected: this acquisition is being served by a
			// sub-optimal protocol. The policy decides whether to change.
			reported = true
			change = l.d.Suboptimal(modeTTS, modeQueue)
		}
		c.Advance(c.Rand().Uint64n(mean) + 1)
		if mean*2 <= l.bo.Max {
			mean *= 2
		}
		if c.Read(l.mode) != modeTTS {
			return false, false, false // mode changed under us
		}
	}
}

// enqueue is the entry of Figure 3.28's acquire_queue: the MCS enqueue,
// modified to detect the invalid queue (consensus object). It returns
// holding the queue lock — empty if the queue was empty and valid, so the
// lock came immediately — or with held false after landing on an invalid
// queue or being sent INVALID by the predecessor. since is when the
// process joined the queue.
func (l *lockPair) enqueue(c machine.Context, i spinlock.QNode) (held, empty bool, since machine.Time) {
	c.Advance(6) // queue-node setup bookkeeping
	since = c.Now()
	c.Write(i.Next(), 0)
	switch pred := c.FetchAndStore(l.Tail, uint64(i.Base)); pred {
	case 0:
		return true, true, since
	case invalidTail:
		// We swapped ourselves onto an invalid queue: restore the invalid
		// marker and signal anyone who queued behind us.
		l.invalidateQueue(c, i)
		return false, false, since
	default:
		// Queue was non-empty: wait for GO or INVALID from predecessor.
		c.Write(i.Status(), stWaiting)
		c.Write(spinlock.NodeAt(pred).Next(), uint64(i.Base))
		l.emptyStreak[c.ProcID()] = 0
		st := c.Read(i.Status())
		for st == stWaiting {
			c.Advance(2)
			st = c.Read(i.Status())
		}
		return st == stGo, false, since
	}
}

// emptyQueueVote counts one more acquisition by proc that found the queue
// empty — low contention — and past EmptyQueueLimit in a row asks the
// policy for the queue→TTS change, reporting whether to perform it.
func (l *lockPair) emptyQueueVote(proc int) bool {
	l.emptyStreak[proc]++
	if l.emptyStreak[proc] > l.EmptyQueueLimit && l.d.Suboptimal(modeQueue, modeTTS) {
		l.emptyStreak[proc] = 0
		return true
	}
	return false
}

// changeToQueue performs the protocol change into the queue protocol
// (Figure 3.29's TTS→QUEUE). Called only by the holder of the valid from
// protocol's consensus object — for TTS the lock itself, which is left
// busy (= invalid) — which makes protocol changes serializable.
func (l *lockPair) changeToQueue(c machine.Context, i spinlock.QNode, from uint64) {
	l.acquireInvalidQueue(c, i)
	l.finishChange(c, from, modeQueue)
	c.Write(l.mode, modeQueue)
	l.Handoff(c, i, invalidTail)
}

// changeQueueToTTS performs the QUEUE→TTS protocol change (Figure 3.29).
// Called only by the holder of the (valid) queue lock.
func (l *lockPair) changeQueueToTTS(c machine.Context, i spinlock.QNode) {
	c.Write(l.mode, modeTTS)
	l.invalidateQueue(c, i)
	l.finishChange(c, modeQueue, modeTTS)
	c.Write(l.tts, 0)
}

// finishChange is a protocol change's serialization point. The changer
// calls it while holding both protocols' consensus objects, just before
// releasing to's makes to acquirable by another process, so no other
// change can come between. It panics unless from is the valid protocol,
// then makes to the valid one; it also validates the change against the
// owner's chain (the decider panics on a move that is not one step —
// for the fetch-and-op, TTS↔tree), tells the policy, and counts the
// change.
func (l *lockPair) finishChange(c machine.Context, from, to uint64) {
	if from != l.valid {
		panic(fmt.Sprintf("core: P%d changed protocol %d→%d while %d is valid", c.ProcID(), from, to, l.valid))
	}
	l.valid = to
	l.Changes++
	l.d.Switched(modal.Mode(from), modal.Mode(to))
}

// acquireInvalidQueue is Figure 3.29's acquire_invalid_queue: take
// ownership of the invalid queue (tail must be INVALID or point to the
// tail of an invalid queue). On return, this process is the queue holder.
func (l *lockPair) acquireInvalidQueue(c machine.Context, i spinlock.QNode) {
	for {
		c.Write(i.Next(), 0)
		pred := c.FetchAndStore(l.Tail, uint64(i.Base))
		if pred == invalidTail {
			return
		}
		// Got onto the tail of an invalid queue: wait for the INVALID
		// signal and retry.
		c.Write(i.Status(), stWaiting)
		c.Write(spinlock.NodeAt(pred).Next(), uint64(i.Base))
		for c.Read(i.Status()) == stWaiting {
			c.Advance(2)
		}
	}
}

// invalidateQueue is Figure 3.29's invalidate_queue: mark the tail invalid
// and signal INVALID to every node from head through the old tail. Called
// only by a process that owns the queue (validly or invalidly).
func (l *lockPair) invalidateQueue(c machine.Context, head spinlock.QNode) {
	tail := c.FetchAndStore(l.Tail, invalidTail)
	cur := head
	for uint64(cur.Base) != tail {
		var next uint64
		for next = c.Read(cur.Next()); next == 0; next = c.Read(cur.Next()) {
			c.Advance(2)
		}
		c.Write(cur.Status(), stInvalid)
		cur = spinlock.NodeAt(next)
	}
	c.Write(cur.Status(), stInvalid)
}
