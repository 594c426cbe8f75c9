// Package sim provides a deterministic, cycle-accurate discrete-event
// simulation engine. Simulated activities that take time (processors,
// threads) run as coroutine actors; activities that happen at an instant
// (message handlers, timers) are inline events, plain functions. Exactly
// one of them executes at any moment, and events with equal timestamps
// fire in schedule order, so a run is fully deterministic given the same
// seed and spawn order.
//
// Dispatch: whoever holds control runs the scheduling step. An actor that
// must let simulated time pass queues its own resumption and pops the next
// event itself; if that event is its own it just returns (no switch), if
// it is an inline event it runs it on the spot, and only when the event
// belongs to another actor does control move, by a coroutine switch
// (iter.Pull) back to Run, which switches into that actor.
//
// The engine is the substrate for the Alewife-like multiprocessor model in
// internal/machine; nothing in this package knows about processors or memory.
package sim

import (
	"fmt"
	"iter"
	"sort"
)

// Time is simulated time in processor clock cycles.
type Time = uint64

// Engine is a deterministic discrete-event simulator. Create one with New,
// add actors with Spawn, then call Run.
type Engine struct {
	now  Time
	seq  uint64
	pq   eventHeap
	seed uint64

	running bool
	stopped bool
	limit   Time // 0 = no limit

	// actors spawned since the last drain, in spawn order: what drain
	// releases and what a deadlock report names.
	actors []*Actor
	// handoff is the actor a yielding actor popped for Run to switch into.
	handoff *Actor

	nextActorID uint64
}

// event is one queue entry: resume actor a, or, when fn is set, run fn
// inline.
type event struct {
	at  Time
	seq uint64
	a   *Actor
	fn  func()
}

// eventHeap is a hand-rolled binary min-heap ordered by (at, seq). It
// avoids container/heap's interface{} boxing, which would allocate on
// every scheduled event — the simulator's hottest path.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !(*h).less(i, parent) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && (*h).less(l, smallest) {
			smallest = l
		}
		if r < n && (*h).less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		(*h)[i], (*h)[smallest] = (*h)[smallest], (*h)[i]
		i = smallest
	}
	return top
}

// New returns an engine whose actor RNGs derive from seed.
func New(seed uint64) *Engine {
	return &Engine{seed: seed}
}

// Now returns the current simulated time in cycles.
func (e *Engine) Now() Time { return e.now }

// SetLimit makes Run fail with a LimitError once simulated time exceeds
// limit — a guard against livelock in simulated systems (e.g. pure
// spin-waiting that starves a never-scheduled producer).
func (e *Engine) SetLimit(limit Time) { e.limit = limit }

// Spawn creates a new actor that will begin executing f at time start
// (which must be >= Now). Spawn may be called before Run, from a running
// actor or from an inline event. The returned Actor must only be
// manipulated by running actors or before Run starts.
func (e *Engine) Spawn(name string, start Time, f func(*Actor)) *Actor {
	id := e.NewActorID()
	a := &Actor{
		e:    e,
		id:   id,
		name: name,
		rng:  NewRand(mix(e.seed, id)),
		body: f,
	}
	e.actors = append(e.actors, a)
	e.schedule(max(start, e.now), a, nil)
	return a
}

// NewActorID takes the next actor id without creating an actor. Actor RNG
// streams derive from ids, so an activity that is an inline event where it
// could have been an actor takes one to keep every later actor's stream
// independent of that choice.
func (e *Engine) NewActorID() uint64 {
	e.nextActorID++
	return e.nextActorID
}

// At schedules fn to run at time t (>= Now) as an inline event: whoever
// holds control when the event comes up calls it, with no actor and no
// switch. fn runs at a single instant and must not block (no Advance or
// Park on any actor); it may Spawn, WakeAt, Stop and schedule further
// events. Among events at the same time it runs in schedule order, exactly
// as an actor scheduled by the same call would have.
func (e *Engine) At(t Time, fn func()) {
	e.schedule(max(t, e.now), nil, fn)
}

func (e *Engine) schedule(at Time, a *Actor, fn func()) {
	e.seq++
	e.pq.push(event{at: at, seq: e.seq, a: a, fn: fn})
}

// nextActor is the scheduling step: it advances the clock through the
// queue, running inline events as they come up, until the next event is
// an actor's, and returns that actor. It returns nil when the run is over:
// stopped, past the limit (the offending event stays queued), or out of
// events.
func (e *Engine) nextActor() *Actor {
	for len(e.pq) > 0 && !e.stopped {
		if at := e.pq[0].at; at > e.now {
			e.now = at
		}
		if e.limit > 0 && e.now > e.limit {
			return nil
		}
		ev := e.pq.pop()
		if ev.fn == nil {
			return ev.a
		}
		ev.fn()
	}
	return nil
}

// Run executes events until no runnable work remains or Stop is called.
// It returns an error if actors remain parked with no pending events
// (a deadlock in the simulated system). However it ends — normally, with
// an error, or by a panic from an actor body or inline event, which
// propagates to Run's caller — every actor's goroutine has been released
// by the time it does.
func (e *Engine) Run() error {
	if e.running {
		return fmt.Errorf("sim: Run called reentrantly")
	}
	e.running = true
	defer func() { e.running = false }()
	defer e.drain()
	for {
		a := e.handoff
		e.handoff = nil
		if a == nil {
			if a = e.nextActor(); a == nil {
				break
			}
		}
		a.resume()
	}
	if e.stopped {
		return nil
	}
	if len(e.pq) > 0 {
		return &LimitError{Limit: e.limit}
	}
	var parked []string
	for _, a := range e.actors {
		if a.parked {
			parked = append(parked, a.name)
		}
	}
	if len(parked) > 0 {
		sort.Strings(parked)
		return &DeadlockError{Time: e.now, Parked: parked}
	}
	return nil
}

// Stop halts the simulation after the currently executing actor yields.
// Call from within an actor to end a run early (e.g. measurement complete).
func (e *Engine) Stop() { e.stopped = true }

// drain discards pending events and releases the goroutine of every actor
// still suspended mid-body: its yield point panics with termSignal, which
// unwinds the body (running its deferred calls) to the coroutine's top.
// Actors never dispatched have no goroutine yet and are just dropped.
func (e *Engine) drain() {
	e.pq = nil
	for _, a := range e.actors {
		if a.stop != nil && !a.finished {
			a.stop()
		}
	}
	e.actors = nil
}

// LimitError reports that the simulation exceeded its cycle limit.
type LimitError struct {
	Limit Time
}

func (l *LimitError) Error() string {
	return fmt.Sprintf("sim: exceeded cycle limit %d (livelock?)", l.Limit)
}

// DeadlockError reports a simulated deadlock: parked actors with no events.
type DeadlockError struct {
	Time   Time
	Parked []string
}

func (d *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at cycle %d; parked actors: %v", d.Time, d.Parked)
}

// Actor is a coroutine participating in the simulation. All methods must be
// called only from the actor's own body while it holds control, except
// Wake, which is called by whichever actor is currently running.
type Actor struct {
	e    *Engine
	id   uint64
	name string
	rng  *Rand
	body func(*Actor)

	// The coroutine, created at first dispatch: next switches into it,
	// stop releases it, suspend (called from inside) switches back out and
	// reports false once stop has been called.
	next    func() (struct{}, bool)
	stop    func()
	suspend func(struct{}) bool

	parked   bool
	finished bool
}

// termSignal unwinds an actor's body during Engine.drain.
type termSignal struct{}

// resume switches into the actor, starting its body on the first call, and
// returns when it switches out or finishes. A panic in the body surfaces
// here, in Run's goroutine.
func (a *Actor) resume() {
	if a.next == nil {
		a.next, a.stop = iter.Pull(func(suspend func(struct{}) bool) {
			a.suspend = suspend
			defer func() {
				a.finished = true
				if r := recover(); r != nil && r != (termSignal{}) {
					panic(r)
				}
			}()
			a.body(a)
		})
	}
	a.next()
}

// Name returns the actor's diagnostic name.
func (a *Actor) Name() string { return a.name }

// ID returns the actor's unique id (1-based, in spawn order).
func (a *Actor) ID() uint64 { return a.id }

// Engine returns the owning engine.
func (a *Actor) Engine() *Engine { return a.e }

// Now returns current simulated time.
func (a *Actor) Now() Time { return a.e.now }

// Rand returns the actor's deterministic random source.
func (a *Actor) Rand() *Rand { return a.rng }

// yield gives up control until the actor's next event comes up. The actor
// runs the scheduling step itself, so when that event is the very next one
// (nothing earlier is pending) this is a heap pop and a return.
func (a *Actor) yield() {
	next := a.e.nextActor()
	if next == a {
		return
	}
	a.e.handoff = next
	if !a.suspend(struct{}{}) {
		panic(termSignal{})
	}
}

// Advance consumes d cycles of simulated time.
func (a *Actor) Advance(d Time) {
	a.AdvanceTo(a.e.now + d)
}

// AdvanceTo consumes simulated time until cycle t (no-op if t <= Now).
func (a *Actor) AdvanceTo(t Time) {
	e := a.e
	if t <= e.now {
		return
	}
	if (len(e.pq) == 0 || t < e.pq[0].at) && !e.stopped && (e.limit == 0 || t <= e.limit) {
		// Queued, this resumption would be the very next event popped (it
		// is the newest, so it loses ties: strictly earlier is required).
		// Take it — and its sequence number — without the round trip.
		e.seq++
		e.now = t
		return
	}
	e.schedule(t, a, nil)
	a.yield()
}

// Park blocks the actor indefinitely until another actor calls Wake.
func (a *Actor) Park() {
	a.parked = true
	a.yield()
}

// Parked reports whether the actor is currently parked.
func (a *Actor) Parked() bool { return a.parked }

// Wake schedules parked actor b to resume at time at (>= Now). It panics if
// b is not parked: the layers above (thread scheduler, message system)
// guarantee wakers only target parked actors.
func (a *Actor) Wake(b *Actor, at Time) {
	a.e.WakeAt(b, at)
}

// WakeAt is Wake for callers that are not an actor: code running before
// Run begins, and inline events.
func (e *Engine) WakeAt(b *Actor, at Time) {
	if !b.parked {
		panic(fmt.Sprintf("sim: Wake(%s): actor not parked", b.name))
	}
	b.parked = false
	e.schedule(max(at, e.now), b, nil)
}

func mix(seed, id uint64) uint64 {
	z := seed + id*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
