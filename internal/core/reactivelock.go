package core

import (
	"repro/internal/machine"
	"repro/internal/memsys"
	"repro/internal/spinlock"
	"repro/reactive/modal"
)

// lockTable is the reactive spin lock's 2-mode chain, TTS ↔ queue. The
// residuals are the costs fed to the 3-competitive policy (Section 3.5.5:
// 150 cycles for TTS under high contention, 15 for the queue under low).
var lockTable = modal.NewTable([]modal.Step{{Residual: 150}}, []modal.Step{{Residual: 15}})

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
// a busy or invalid sub-lock and retry with the other protocol. Policy, the
// two thresholds and Changes are the embedded pair's fields.
type ReactiveLock struct {
	lockPair // both protocols, their monitoring and the changes between them

	// Optimistic controls the latency optimization of trying the TTS lock
	// before reading the mode variable (ablation; default true).
	Optimistic bool
}

// Handle is the per-acquisition state Release needs.
type Handle struct {
	rel  ReleaseMode
	node spinlock.QNode
}

// NewReactiveLock builds a reactive spin lock homed on node home.
func NewReactiveLock(mem *memsys.System, home int) *ReactiveLock {
	l := &ReactiveLock{Optimistic: true}
	l.init(mem, home, lockTable)
	return l
}

// Name implements spinlock.Lock.
func (l *ReactiveLock) Name() string { return "reactive" }

// Acquire implements spinlock.Lock: the top-level dispatch of Figure 3.27.
func (l *ReactiveLock) Acquire(c machine.Context) spinlock.Handle {
	i := l.Node(c.ProcID())
	if l.Optimistic {
		// Optimistically try the TTS lock before checking the mode
		// variable: zero-contention fast path.
		if c.TestAndSet(l.tts) == 0 {
			l.d.Optimal(modeTTS, modeQueue)
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
		l.Handoff(c, hd.node, invalidTail)
	case RelTTSToQueue:
		l.changeToQueue(c, hd.node, modeTTS)
	case RelQueueToTTS:
		l.changeQueueToTTS(c, hd.node)
	}
}

// acquireTTS is Figure 3.28's acquire_tts. A waiter that sees the mode
// change goes straight to the queue protocol.
func (l *ReactiveLock) acquireTTS(c machine.Context, i spinlock.QNode) *Handle {
	held, calm, change := l.spinTTS(c)
	if !held {
		return l.acquireQueue(c, i)
	}
	if calm {
		l.d.Optimal(modeTTS, modeQueue)
	}
	if change {
		return &Handle{rel: RelTTSToQueue, node: i}
	}
	return &Handle{rel: RelTTS, node: i}
}

// acquireQueue is Figure 3.28's acquire_queue. A process that finds the
// queue invalid, or is told so while waiting, retries with TTS.
func (l *ReactiveLock) acquireQueue(c machine.Context, i spinlock.QNode) *Handle {
	held, empty, _ := l.enqueue(c, i)
	switch {
	case !held:
		return l.acquireTTS(c, i)
	case !empty:
		l.d.Optimal(modeQueue, modeTTS)
	case l.emptyQueueVote(c.ProcID()):
		return &Handle{rel: RelQueueToTTS, node: i}
	}
	return &Handle{rel: RelQueue, node: i}
}
