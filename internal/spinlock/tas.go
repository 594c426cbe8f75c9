package spinlock

import (
	"repro/internal/machine"
	"repro/internal/memsys"
)

// Backoff holds the randomized-exponential-backoff parameters used by the
// polling lock protocols (Anderson [5]; Section 3.1.1). The mean delay
// doubles after each failed test&set and halves after each success; the
// maximum bound must accommodate the largest expected number of contenders.
type Backoff struct {
	Initial machine.Time
	Max     machine.Time
}

// DefaultBackoff is tuned for up to 64 contending processors, matching the
// thesis's experimental setup.
var DefaultBackoff = Backoff{Initial: 16, Max: 1500}

// delay performs one randomized backoff pause and returns the doubled mean.
func (b Backoff) delay(c machine.Context, mean machine.Time) machine.Time {
	if mean > 0 {
		c.Advance(c.Rand().Uint64n(mean) + 1)
	}
	next := mean * 2
	if next > b.Max {
		next = b.Max
	}
	return next
}

// TASLock is the test-and-set spin lock: it polls the flag with test&set
// (an exclusive-ownership RMW on every poll), with randomized exponential
// backoff between failed attempts.
type TASLock struct {
	flag memsys.Addr
	bo   Backoff
	// per-processor persistent mean delay (halved on success, doubled on
	// failure), as Anderson prescribes.
	mean []machine.Time
}

// NewTAS allocates a test-and-set lock homed on node home.
func NewTAS(mem *memsys.System, home int, bo Backoff) *TASLock {
	return &TASLock{
		flag: mem.Alloc(home, 1),
		bo:   bo,
		mean: make([]machine.Time, mem.Config().NumNodes),
	}
}

// Name implements Lock.
func (l *TASLock) Name() string { return "test&set" }

// Acquire implements Lock.
func (l *TASLock) Acquire(c machine.Context) Handle {
	p := c.ProcID()
	mean := l.mean[p]
	if mean == 0 {
		mean = l.bo.Initial
	}
	for {
		if c.TestAndSet(l.flag) == 0 {
			l.mean[p] = mean / 2
			return nil
		}
		instr(c, 2)
		mean = l.bo.delay(c, mean)
	}
}

// Release implements Lock.
func (l *TASLock) Release(c machine.Context, _ Handle) {
	c.Write(l.flag, 0)
}

// TTSLock is the test-and-test-and-set spin lock: waiters read-poll the
// (cached) flag and attempt test&set only when it reads free, again with
// randomized exponential backoff after failed test&sets.
type TTSLock struct {
	flag memsys.Addr
	bo   Backoff
	mean []machine.Time
}

// NewTTS allocates a test-and-test-and-set lock homed on node home.
func NewTTS(mem *memsys.System, home int, bo Backoff) *TTSLock {
	return &TTSLock{
		flag: mem.Alloc(home, 1),
		bo:   bo,
		mean: make([]machine.Time, mem.Config().NumNodes),
	}
}

// Name implements Lock.
func (l *TTSLock) Name() string { return "test&test&set" }

// Acquire implements Lock.
func (l *TTSLock) Acquire(c machine.Context) Handle {
	p := c.ProcID()
	mean := l.mean[p]
	if mean == 0 {
		mean = l.bo.Initial
	}
	for {
		// Read-poll while the lock is held: hits in the local cache.
		for c.Read(l.flag) != 0 {
			instr(c, 2)
		}
		if c.TestAndSet(l.flag) == 0 {
			l.mean[p] = mean / 2
			return nil
		}
		instr(c, 2)
		mean = l.bo.delay(c, mean)
	}
}

// Release implements Lock.
func (l *TTSLock) Release(c machine.Context, _ Handle) {
	c.Write(l.flag, 0)
}

// AcquireWord takes the one-word spin lock at a: read-poll while it is
// busy, test&set when it reads free, and pause a uniformly random 1 to 16
// cycles after losing the test&set. It is the lock on the combining tree's
// nodes — short critical sections with few contenders, so no exponential
// backoff and no per-processor state. The holder releases with
// c.Write(a, 0).
func AcquireWord(c machine.Context, a memsys.Addr) {
	for {
		for c.Read(a) != 0 {
			instr(c, 2)
		}
		if c.TestAndSet(a) == 0 {
			return
		}
		c.Advance(c.Rand().Uint64n(16) + 1)
	}
}
