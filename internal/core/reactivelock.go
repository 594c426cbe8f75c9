package core

import (
	"repro/internal/machine"
	"repro/internal/memsys"
	"repro/internal/spinlock"
	"repro/reactive/modal"
	"repro/reactive/policy"
)

// Mode values for the reactive lock's mode variable. They double as the
// modal.Mode indices of the lock's transition table.
const (
	modeTTS   uint64 = 0
	modeQueue uint64 = 1
)

// lockModeName names the reactive lock's modes for history checking.
var lockModeName = [...]string{modeTTS: "tts", modeQueue: "queue"}

// ReleaseMode tells Release which protocol to release and whether to
// perform a protocol change (the release_mode of Figure 3.27).
type ReleaseMode int

// Release modes.
const (
	RelTTS ReleaseMode = iota
	RelQueue
	RelTTSToQueue
	RelQueueToTTS
)

// ReactiveLock is the reactive spin lock of Section 3.7.3: a
// test-and-test-and-set lock, an MCS queue lock, and a mode variable that
// hints which sub-lock to use. The algorithm guarantees the two sub-locks
// are never free at the same time; processes that follow a stale hint find
// a busy or invalid sub-lock and retry with the other protocol.
type ReactiveLock struct {
	mode machine.Addr // hint: modeTTS or modeQueue (own cache line)
	tts  machine.Addr // TTS flag: 0 free, 1 busy

	invQueue // the queue protocol: tail word, queue nodes, change bookkeeping

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

	// Residual costs fed to the 3-competitive policy (Section 3.5.5: 150
	// cycles for TTS under high contention, 15 for the queue under low).
	ResidualTTSHigh  uint64
	ResidualQueueLow uint64

	// Optimistic controls the latency optimization of trying the TTS lock
	// before reading the mode variable (ablation; default true).
	Optimistic bool

	emptyStreak []int

	// d routes detection events and transition validation through the
	// shared modal-object state machine. The mode itself lives in
	// simulated memory — the decider carries the pure transition logic,
	// the memory effects stay here.
	d      *modal.Decider
	dResid [2]uint64 // residuals the current table was built with
}

// dec returns the lock's modal decider over the 2-mode transition table
// (TTS ↔ queue, the thesis's reactive spin lock), rebuilding the table
// whenever the exported Residual* tunables have changed so live tuning
// keeps working as it did when residuals were read per call. The
// simulator's event engine serializes all calls, so the unsynchronized
// Decider is the right engine variant here.
func (l *ReactiveLock) dec() *modal.Decider {
	resid := [2]uint64{l.ResidualTTSHigh, l.ResidualQueueLow}
	if l.d == nil || l.dResid != resid {
		l.dResid = resid
		l.d = modal.NewDecider(modal.NewTable(2, []modal.Transition{
			{From: modal.Mode(modeTTS), To: modal.Mode(modeQueue), Dir: dirToQueue, Residual: l.ResidualTTSHigh},
			{From: modal.Mode(modeQueue), To: modal.Mode(modeTTS), Dir: dirToTTS, Residual: l.ResidualQueueLow},
		}), &l.Policy)
	}
	return l.d
}

// Handle is the per-acquisition state Release needs.
type Handle struct {
	rel  ReleaseMode
	node spinlock.QNode
}

// Direction indices for policy events.
const (
	dirToQueue policy.Direction = 0
	dirToTTS   policy.Direction = 1
)

// NewReactiveLock builds a reactive spin lock homed on node home.
func NewReactiveLock(mem *memsys.System, home int) *ReactiveLock {
	procs := mem.Config().NumNodes
	l := &ReactiveLock{
		mode:             mem.Alloc(home, 1),
		tts:              mem.Alloc(home, 1),
		invQueue:         newInvQueue(mem, home, lockModeName[:]),
		bo:               spinlock.DefaultBackoff,
		mean:             make([]machine.Time, procs),
		Policy:           policy.AlwaysSwitch{},
		TTSRetryLimit:    3,
		EmptyQueueLimit:  4,
		ResidualTTSHigh:  150,
		ResidualQueueLow: 15,
		Optimistic:       true,
		emptyStreak:      make([]int, procs),
	}
	// Initial state: TTS mode; TTS lock free, queue invalid.
	mem.Poke(l.mode, modeTTS)
	mem.Poke(l.tts, 0)
	return l
}

// Name implements spinlock.Lock.
func (l *ReactiveLock) Name() string { return "reactive" }

// Acquire implements spinlock.Lock: the top-level dispatch of Figure 3.27.
func (l *ReactiveLock) Acquire(c machine.Context) spinlock.Handle {
	i := l.node(c.ProcID())
	if l.Optimistic {
		// Optimistically try the TTS lock before checking the mode
		// variable: zero-contention fast path.
		if c.TestAndSet(l.tts) == 0 {
			l.dec().Optimal(modal.Mode(modeTTS), modal.Mode(modeQueue))
			return &Handle{rel: RelTTS, node: i}
		}
	}
	if c.Read(l.mode) == modeTTS {
		return l.acquireTTS(c, i)
	}
	return l.acquireQueue(c, i)
}

// Release implements spinlock.Lock: dispatch on the release mode.
func (l *ReactiveLock) Release(c machine.Context, h spinlock.Handle) {
	hd := h.(*Handle)
	switch hd.rel {
	case RelTTS:
		c.Write(l.tts, 0)
	case RelQueue:
		l.releaseQueue(c, hd.node)
	case RelTTSToQueue:
		l.releaseTTSToQueue(c, hd.node)
	case RelQueueToTTS:
		l.releaseQueueToTTS(c, hd.node)
	}
}

// acquireTTS is Figure 3.28's acquire_tts: test-and-test-and-set with
// randomized exponential backoff, monitoring failed test&set attempts
// (M>) and consulting the policy for a protocol change (P>).
func (l *ReactiveLock) acquireTTS(c machine.Context, i spinlock.QNode) *Handle {
	p := c.ProcID()
	rel := RelTTS
	retries := 0
	reported := false
	mean := l.mean[p]
	if mean == 0 {
		mean = l.bo.Initial
	}
	for {
		if c.Read(l.tts) == 0 {
			if c.TestAndSet(l.tts) == 0 {
				l.mean[p] = mean / 2
				if retries <= l.TTSRetryLimit {
					l.dec().Optimal(modal.Mode(modeTTS), modal.Mode(modeQueue))
				}
				return &Handle{rel: rel, node: i}
			}
		}
		retries++
		if retries > l.TTSRetryLimit && !reported {
			// Contention detected: this acquisition is being served by a
			// sub-optimal protocol. The policy decides whether to change.
			reported = true
			if l.dec().Suboptimal(modal.Mode(modeTTS), modal.Mode(modeQueue)) {
				rel = RelTTSToQueue
			}
		}
		c.Advance(c.Rand().Uint64n(mean) + 1)
		if mean*2 <= l.bo.Max {
			mean *= 2
		}
		if c.Read(l.mode) != modeTTS {
			return l.acquireQueue(c, i) // mode changed under us
		}
	}
}

// acquireQueue is Figure 3.28's acquire_queue: the MCS enqueue, modified to
// detect the invalid queue (consensus object) and the empty-queue streak.
func (l *ReactiveLock) acquireQueue(c machine.Context, i spinlock.QNode) *Handle {
	p := c.ProcID()
	c.Advance(6) // queue-node setup bookkeeping
	c.Write(i.Next(), 0)
	pred := c.FetchAndStore(l.tail, uint64(i.Base))
	if pred == 0 {
		// Queue was empty and valid: lock acquired immediately; low
		// contention observed.
		l.emptyStreak[p]++
		if l.emptyStreak[p] > l.EmptyQueueLimit {
			if l.dec().Suboptimal(modal.Mode(modeQueue), modal.Mode(modeTTS)) {
				l.emptyStreak[p] = 0
				return &Handle{rel: RelQueueToTTS, node: i}
			}
		}
		return &Handle{rel: RelQueue, node: i}
	}
	if pred != invalidTail {
		// Queue was non-empty: wait for GO or INVALID from predecessor.
		c.Write(i.Status(), stWaiting)
		c.Write(spinlock.QNode{Base: memsys.Addr(pred)}.Next(), uint64(i.Base))
		l.emptyStreak[p] = 0
		st := c.Read(i.Status())
		for st == stWaiting {
			c.Advance(2)
			st = c.Read(i.Status())
		}
		if st == stGo {
			l.dec().Optimal(modal.Mode(modeQueue), modal.Mode(modeTTS))
			return &Handle{rel: RelQueue, node: i}
		}
		return l.acquireTTS(c, i) // invalid signal: retry with TTS
	}
	// We swapped ourselves onto an invalid queue: restore the invalid
	// marker, signal anyone who queued behind us, and retry with TTS.
	l.invalidateQueue(c, i)
	return l.acquireTTS(c, i)
}

// releaseTTSToQueue performs the TTS→QUEUE protocol change (Figure 3.29).
// Called only by the holder of the (valid) TTS lock, which makes protocol
// changes serializable: the holder has the consensus object.
func (l *ReactiveLock) releaseTTSToQueue(c machine.Context, i spinlock.QNode) {
	l.acquireInvalidQueue(c, i)
	c.Write(l.mode, modeQueue)
	// Release the queue lock; the TTS lock is left busy (= invalid).
	l.releaseQueue(c, i)
	l.finishChange(c, l.dec(), modeTTS, modeQueue)
}

// releaseQueueToTTS performs the QUEUE→TTS protocol change (Figure 3.29).
// Called only by the holder of the (valid) queue lock.
func (l *ReactiveLock) releaseQueueToTTS(c machine.Context, i spinlock.QNode) {
	c.Write(l.mode, modeTTS)
	l.invalidateQueue(c, i)
	c.Write(l.tts, 0)
	l.finishChange(c, l.dec(), modeQueue, modeTTS)
}

// Mode returns the current protocol hint (test use).
func (l *ReactiveLock) Mode() uint64 { return l.mem.Peek(l.mode) }
