// Package threads provides the lightweight, non-preemptive thread runtime
// of the thesis's Chapter 4 experiments: per-processor ready queues,
// spawn/join, and blocking with the measured Alewife costs of Table 4.1
// (~300 cycles to unload a thread, ~100 to reenable it, ~65 to reload it;
// about 500 cycles per block in total).
//
// Scheduling is non-preemptive, as in Alewife's run-time system: a thread
// runs until it blocks, yields, or finishes; spin-waiting holds the
// processor. Each thread is a simulation actor; the scheduler maintains the
// invariant that at most one thread per processor is runnable at a time.
package threads

import (
	"fmt"

	"repro/internal/machine"
)

// Time is simulated cycles.
type Time = machine.Time

// Costs holds the thread-management cost parameters (Table 4.1, measured
// values: loads and stores take ~3x base cycles when unloading because of
// cache misses).
type Costs struct {
	Unload   Time // unload registers, enqueue thread, book-keeping
	Reenable Time // lock queue of blocked threads, move to ready queue
	Reload   Time // reload registers, restore state
	Switch   Time // context switch between loaded contexts (Sparcle: 14)
	Spawn    Time // create and enqueue a new thread
}

// DefaultCosts returns the measured Alewife costs: a block-unblock pair
// costs Unload+Reenable+Reload ≈ 465-500 cycles.
func DefaultCosts() Costs {
	return Costs{Unload: 300, Reenable: 100, Reload: 65, Switch: 14, Spawn: 90}
}

// BlockCost returns B, the total fixed cost of blocking (the signaling
// mechanism's cost in the two-phase waiting analysis).
func (c Costs) BlockCost() Time { return c.Unload + c.Reenable + c.Reload }

// State is a thread's lifecycle state.
type State int

// Thread states.
const (
	StateNew State = iota
	StateRunning
	StateReady
	StateBlocked
	StateDead
)

// Scheduler manages threads across the machine's processors.
type Scheduler struct {
	m     *machine.Machine
	costs Costs
	procs []*procSched

	// Blocks and Unblocks count scheduling events (experiment stats).
	Blocks, Unblocks, Switches uint64

	live int
}

type procSched struct {
	current *Thread
	ready   []*Thread
}

// NewScheduler creates a scheduler for machine m.
func NewScheduler(m *machine.Machine, costs Costs) *Scheduler {
	s := &Scheduler{m: m, costs: costs, procs: make([]*procSched, m.NumProcs())}
	for i := range s.procs {
		s.procs[i] = &procSched{}
	}
	return s
}

// Machine returns the underlying machine.
func (s *Scheduler) Machine() *machine.Machine { return s.m }

// Costs returns the cost configuration.
func (s *Scheduler) Costs() Costs { return s.costs }

// Live returns the number of threads not yet dead.
func (s *Scheduler) Live() int { return s.live }

// Thread is a lightweight thread bound to one processor. It implements
// machine.Context (delegating to an underlying CPU context), adding
// blocking, yielding, and joining.
type Thread struct {
	*machine.CPU
	sched   *Scheduler
	proc    int
	name    string
	state   State
	started bool

	doneWaiters []*Thread
}

// Spawn creates a thread named name on processor proc running f, beginning
// no earlier than time start. Callable before Run or from running threads.
func (s *Scheduler) Spawn(proc int, start Time, name string, f func(*Thread)) *Thread {
	t := &Thread{sched: s, proc: proc, name: name, state: StateNew}
	s.live++
	s.m.SpawnCPU(proc, start, name, func(c *machine.CPU) {
		t.CPU = c
		t.started = true
		ps := s.procs[proc]
		if ps.current == nil {
			ps.current = t
			t.state = StateRunning
		} else if t.state != StateRunning {
			// Processor busy: wait in the ready queue.
			t.state = StateReady
			ps.ready = append(ps.ready, t)
			c.Actor().Park()
		}
		f(t)
		t.exit()
	})
	return t
}

// SpawnChild is Spawn plus the spawn overhead charged to the caller.
func (t *Thread) SpawnChild(proc int, name string, f func(*Thread)) *Thread {
	t.Advance(t.sched.costs.Spawn)
	return t.sched.Spawn(proc, t.Now(), name, f)
}

// Name returns the thread's diagnostic name.
func (t *Thread) Name() string { return t.name }

// State returns the thread's lifecycle state.
func (t *Thread) State() State { return t.state }

// Scheduler returns the owning scheduler.
func (t *Thread) Scheduler() *Scheduler { return t.sched }

// dispatchNext hands the processor to the next ready thread (charging it
// the reload cost) or idles the processor.
func (s *Scheduler) dispatchNext(proc int) {
	ps := s.procs[proc]
	if len(ps.ready) == 0 {
		ps.current = nil
		return
	}
	next := ps.ready[0]
	ps.ready = ps.ready[1:]
	ps.current = next
	if next.started {
		s.m.Eng.WakeAt(next.CPU.Actor(), s.m.Eng.Now()+s.costs.Reload)
	} else {
		// The thread's start event has not fired yet; when it does, it
		// will see itself current and run. (Only possible for same-cycle
		// spawn and dispatch.)
		next.state = StateRunning
	}
}

// exit terminates the thread, waking joiners and dispatching a successor.
func (t *Thread) exit() {
	t.state = StateDead
	t.sched.live--
	for _, w := range t.doneWaiters {
		w.makeReady()
	}
	t.doneWaiters = nil
	t.sched.dispatchNext(t.proc)
}

// park deschedules the calling thread until makeReady dispatches it again.
func (t *Thread) park() {
	t.CPU.Actor().Park()
	t.state = StateRunning
}

// makeReady moves a blocked or new thread to its processor's ready queue,
// dispatching it immediately if the processor is idle.
func (t *Thread) makeReady() {
	s := t.sched
	ps := s.procs[t.proc]
	t.state = StateReady
	if ps.current == nil {
		ps.current = t
		if t.started {
			s.m.Eng.WakeAt(t.CPU.Actor(), s.m.Eng.Now()+s.costs.Reload)
		} else {
			t.state = StateRunning
		}
		return
	}
	ps.ready = append(ps.ready, t)
}

// Yield gives up the processor to the next ready thread, if any, placing
// the caller at the back of the ready queue. It charges the context-switch
// cost and returns when rescheduled.
func (t *Thread) Yield() {
	s := t.sched
	ps := s.procs[t.proc]
	if len(ps.ready) == 0 {
		t.Advance(2)
		return
	}
	s.Switches++
	t.Advance(s.costs.Switch)
	ps.ready = append(ps.ready, t)
	s.dispatchNext(t.proc)
	t.park()
}

// Join blocks until other has finished. (Joining is a signaling wait: the
// caller blocks and is reenabled by the exiting thread.)
func (t *Thread) Join(other *Thread) {
	if other.state == StateDead {
		return
	}
	t.Advance(t.sched.costs.Unload)
	if other.state == StateDead {
		return
	}
	t.state = StateBlocked
	other.doneWaiters = append(other.doneWaiters, t)
	t.sched.Blocks++
	t.sched.dispatchNext(t.proc)
	t.park()
}

// WaitQueue is a queue of blocked threads associated with a
// synchronization condition (the software queue a blocked Alewife thread is
// placed on).
type WaitQueue struct {
	ts []*Thread
}

// Len returns the number of blocked threads.
func (q *WaitQueue) Len() int { return len(q.ts) }

// Block deschedules the calling thread onto q after a final check of cond
// (the re-check happens after the unload cost has been charged and with no
// intervening yield, so a concurrent signaler cannot slip between the check
// and the enqueue). It returns immediately if cond is already true.
func (q *WaitQueue) Block(t *Thread, cond func() bool) {
	t.Advance(t.sched.costs.Unload)
	if cond != nil && cond() {
		return
	}
	t.state = StateBlocked
	q.ts = append(q.ts, t)
	t.sched.Blocks++
	t.sched.dispatchNext(t.proc)
	t.park()
}

// WakeOne reenables the oldest blocked thread. The caller (any execution
// context) is charged the reenable cost. It returns whether a thread was
// woken.
func (q *WaitQueue) WakeOne(c machine.Context) bool {
	if len(q.ts) == 0 {
		return false
	}
	// Dequeue before charging the reenable cost: Advance yields control,
	// and another waker must not observe the thread still queued.
	t := q.ts[0]
	q.ts = q.ts[1:]
	c.Advance(t.sched.costs.Reenable)
	t.sched.Unblocks++
	t.makeReady()
	return true
}

// WakeAll reenables every blocked thread, charging the caller the reenable
// cost per thread (Alewife reenables sequentially). It returns the count.
func (q *WaitQueue) WakeAll(c machine.Context) int {
	n := len(q.ts)
	for q.WakeOne(c) {
	}
	return n
}

// String implements fmt.Stringer for debugging.
func (t *Thread) String() string {
	return fmt.Sprintf("thread(%s@p%d,%v)", t.name, t.proc, t.state)
}

var _ machine.Context = (*Thread)(nil)
