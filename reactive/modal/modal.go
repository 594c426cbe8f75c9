// Package modal implements the generic N-mode modal-object engine at the
// heart of Lim & Agarwal's reactive synchronization framework. A modal
// object is a set of N protocols (modes) implementing one synchronization
// operation, plus a consensus-serialized way to change which protocol is
// selected. The thesis's reactive spin lock is a 2-mode modal object
// (test&set vs queue), and its reactive fetch-and-op is a 3-mode one
// (lock-based central word, queue-based, combining tree); this package is
// the shape they share, extracted so that every future primitive is a
// transition table rather than a rewrite.
//
// The package deliberately contains only the pure protocol-selection
// logic:
//
//   - Table — an immutable N×N transition table. Each permitted
//     transition carries the policy direction it reports as
//     (cheap→scalable or scalable→cheap), the residual cost charged to
//     a competitive policy when the transition's source mode serves a
//     request sub-optimally, and the Signal (class of observation) that
//     votes for it.
//   - Engine — the goroutine-safe selector used by the native primitives
//     in package reactive: an epoch-packed mode word changed only by
//     compare-and-swap (the consensus-object analogue — at most one
//     writer wins each epoch), per-edge hysteresis streaks or an injected
//     policy.Policy serialized by a small randomized-backoff lock.
//   - Decider — the unsynchronized variant used by the cycle-level
//     simulator, whose event engine and simulated consensus objects
//     already serialize detection; it validates transitions against the
//     same Table and forwards votes to the same policies.
//
// Memory and waiting effects — what a mode *is*, how waiters migrate
// across a change — stay with the caller; the engine only decides and
// serializes. Backoff, the randomized exponential backoff every spin loop
// in package reactive pauses with, lives here too; the two-phase wait
// itself (poll, then park) is reactive/internal/waitq's Queue.Wait.
package modal

import (
	"fmt"
	"sync/atomic"

	"repro/reactive/internal/chaos"
	"repro/reactive/policy"
)

// Mode indexes a protocol within one modal object. Modes are dense small
// integers local to the object: a table over N modes uses 0..N-1, and the
// zero mode is the object's initial (cheapest) protocol.
type Mode uint32

// MaxEdges bounds the number of permitted transitions in one Table; the
// Engine's per-edge streak counters are a fixed-size array so the zero
// value needs no allocation. N×N tables of practical size (the thesis's
// largest modal object has N=3 with 4 edges) fit comfortably.
const MaxEdges = 16

// Signal classifies one request a modal object served — the monitoring
// half of the thesis's monitor/policy split (§3.4). A primitive's
// detection sites only classify; which edge a class votes for is the
// table's On column, applied by Engine.Observe.
type Signal uint8

const (
	// None, the zero value, votes for nothing; as an edge's On it marks a
	// transition only an explicit TryCommit takes.
	None Signal = iota
	// Calm: no contention met — a scalable protocol served sub-optimally.
	Calm
	// Busy: contention met — a cheap protocol served sub-optimally.
	Busy
	// BusyRead is Busy met by a read-only request. An edge declared
	// On: BusyRead is voted for by contended reads alone; an edge
	// declared On: Busy accepts both.
	BusyRead
)

// accepts reports whether an edge declared On: on takes signal s's vote.
func (on Signal) accepts(s Signal) bool {
	return s != None && (on == s || on == Busy && s == BusyRead)
}

// Transition is one permitted protocol change in a Table.
type Transition struct {
	From, To Mode
	// Dir is the policy direction this transition reports detection
	// events under: by convention 0 for cheap→scalable edges (contention
	// appeared) and 1 for scalable→cheap edges (contention disappeared),
	// matching the direction conventions shared by the simulator and the
	// native primitives.
	Dir policy.Direction
	// Residual is the extra cost charged to an injected policy
	// (policy.Policy.Suboptimal) each time the From protocol serves a
	// request this edge's detection classifies as sub-optimal.
	Residual uint64
	// On is the observation that votes for this transition while From is
	// selected (see Engine.Observe); every other observation confirms
	// From over To.
	On Signal
}

// Table is an immutable N×N transition table: which protocol changes a
// modal object permits, and how each edge's detection events map onto a
// switching policy. One Table is typically a package-level variable
// shared by every instance of a primitive; per-instance state lives in
// the Engine (or Decider).
type Table struct {
	n     int
	edges []Transition
	idx   []int8  // n*n entries, edge index + 1; 0 = transition absent
	out   [][]int // per mode, the indices of its out-edges
}

// NewTable builds a transition table over n modes. It panics — at
// package init time in practice — on n < 2, more than MaxEdges
// transitions, an out-of-range or self-looping edge, a duplicate edge, a
// Dir other than 0 or 1, or a mode with two out-edges one signal would
// vote for (an observation votes for at most one transition).
func NewTable(n int, ts []Transition) *Table {
	if n < 2 {
		panic("modal: a modal object needs at least 2 modes")
	}
	if len(ts) == 0 {
		panic("modal: a modal object needs at least one transition")
	}
	if len(ts) > MaxEdges {
		panic(fmt.Sprintf("modal: %d transitions exceed MaxEdges=%d", len(ts), MaxEdges))
	}
	t := &Table{n: n, edges: append([]Transition(nil), ts...), idx: make([]int8, n*n), out: make([][]int, n)}
	for i, e := range t.edges {
		if int(e.From) >= n || int(e.To) >= n {
			panic(fmt.Sprintf("modal: transition %d→%d out of range for %d modes", e.From, e.To, n))
		}
		if e.From == e.To {
			panic(fmt.Sprintf("modal: self-transition %d→%d", e.From, e.To))
		}
		at := int(e.From)*n + int(e.To)
		if t.idx[at] != 0 {
			panic(fmt.Sprintf("modal: duplicate transition %d→%d", e.From, e.To))
		}
		t.idx[at] = int8(i + 1)
		if e.Dir != 0 && e.Dir != 1 {
			panic(fmt.Sprintf("modal: transition %d→%d has direction %d, want 0 or 1", e.From, e.To, e.Dir))
		}
		for _, j := range t.out[e.From] {
			if o := t.edges[j]; e.On.accepts(o.On) || o.On.accepts(e.On) {
				panic(fmt.Sprintf("modal: one signal votes for both %d→%d and %d→%d", e.From, o.To, e.From, e.To))
			}
		}
		t.out[e.From] = append(t.out[e.From], i)
	}
	return t
}

// N returns the number of modes.
func (t *Table) N() int { return t.n }

// Transitions returns a copy of the permitted transitions.
func (t *Table) Transitions() []Transition { return append([]Transition(nil), t.edges...) }

// Has reports whether the table permits the from→to transition.
func (t *Table) Has(from, to Mode) bool {
	if int(from) >= t.n || int(to) >= t.n {
		return false
	}
	return t.idx[int(from)*t.n+int(to)] != 0
}

// edge resolves from→to to its dense edge index, panicking on a
// transition absent from the table — the consensus step every protocol
// change must pass through; an absent edge is a programming error in the
// calling primitive, never a data-dependent condition.
func (t *Table) edge(from, to Mode) int {
	if int(from) >= t.n || int(to) >= t.n {
		panic(fmt.Sprintf("modal: mode %d→%d out of range for %d modes", from, to, t.n))
	}
	i := t.idx[int(from)*t.n+int(to)]
	if i == 0 {
		panic(fmt.Sprintf("modal: transition %d→%d absent from table", from, to))
	}
	return int(i - 1)
}

// Mode-word layout: the low 32 bits hold the current Mode, the high 32
// bits the epoch, which increments exactly once per committed
// transition. Readers therefore can never observe a torn change — mode
// and epoch move in one atomic word — and a CAS from an observed word can
// succeed only if no transition intervened (the consensus property).
const modeMask = (1 << 32) - 1

func pack(epoch uint32, m Mode) uint64 { return uint64(epoch)<<32 | uint64(m) }

// Unpack splits a mode word into its epoch and mode halves.
func Unpack(word uint64) (epoch uint32, m Mode) {
	return uint32(word >> 32), Mode(word & modeMask)
}

// Engine is the goroutine-safe modal-object selector. The zero value is
// an engine in mode 0 at epoch 0 using built-in streak detection; it is
// ready to use with any Table (the table is passed into each call so one
// static table serves every instance and the zero value stays
// allocation-free). An Engine must not be copied after first use, and
// must not be used with more than one Table.
type Engine struct {
	// word is the epoch-packed mode word — the consensus object
	// serializing mode changes. All transitions go through TryCommit's
	// CAS; everything else only reads it.
	word atomic.Uint64

	pol policy.Policy // nil: built-in per-edge streak detection

	// lock serializes calls into pol (policies are deliberately
	// unsynchronized). Taken only on detection events, never on a
	// primitive's uncontended fast path, and contended waiters back off
	// with randomized exponential backoff so a hot injected policy does
	// not become a contention hotspot.
	lock  atomic.Uint32
	dirty atomic.Bool // a sub-optimal vote reached pol since the last switch

	streaks  [MaxEdges]atomic.Int32
	switches atomic.Uint64
}

// SetPolicy installs p as the switching policy, replacing the built-in
// streak detection (nil restores it). Call before the engine is shared;
// the engine serializes all calls into p, but p must not be shared with
// any other engine or goroutine.
func (e *Engine) SetPolicy(p policy.Policy) { e.pol = p }

// Policy returns the installed switching policy (nil with built-in
// streak detection).
func (e *Engine) Policy() policy.Policy { return e.pol }

// Mode returns the currently selected mode.
func (e *Engine) Mode() Mode { return Mode(e.word.Load() & modeMask) }

// Epoch returns the number of transitions committed so far (mod 2³²).
func (e *Engine) Epoch() uint32 { epoch, _ := Unpack(e.word.Load()); return epoch }

// Word returns the raw epoch-packed mode word.
func (e *Engine) Word() uint64 { return e.word.Load() }

// Switches returns the number of committed transitions.
func (e *Engine) Switches() uint64 { return e.switches.Load() }

// Dirty reports whether a sub-optimal vote has reached the injected
// policy since the last transition or re-quiescence — i.e. whether
// Optimal events are currently being forwarded rather than elided. Always
// false with built-in detection. Intended for tests and introspection.
func (e *Engine) Dirty() bool { return e.dirty.Load() }

// acquire takes the policy-serialization lock with randomized
// exponential backoff.
func (e *Engine) acquire() {
	var bo Backoff
	bo.Max = 32
	for !e.lock.CompareAndSwap(0, 1) {
		bo.Pause()
	}
}

func (e *Engine) release() { e.lock.Store(0) }

// Observe is the whole detection rule: one request served in mode from
// was classified as s. The out-edge of from whose On accepts s takes the
// vote — from was sub-optimal in the way that transition cures — and
// every other out-edge is confirmed, breaking its streak. fire reports
// that the caller should attempt from→to now (via TryCommit, after any
// mode-specific preparation). limits holds the built-in detection's
// streak thresholds indexed by the voted edge's Dir: the fail limit for
// cheap→scalable, the empty limit for scalable→cheap.
//
// An injected policy hears exactly one event per observation: the voted
// edge's Suboptimal, or — when no edge accepts s — one Optimal. Never
// both, and never one per edge: the Policy interface keeps no per-edge
// state, so an Optimal sent for a confirmed edge would erase the
// pressure the same observation's vote raised (Hysteresis.Optimal zeroes
// both streaks), and two Optimals would age a WeightedAverage twice for
// one request. Panics if from is out of range.
func (e *Engine) Observe(t *Table, from Mode, s Signal, limits [2]int32) (to Mode, fire bool) {
	out, voted := t.out[from], false
	for _, i := range out {
		if ed := &t.edges[i]; ed.On.accepts(s) {
			to, fire, voted = ed.To, e.Vote(t, from, ed.To, limits[ed.Dir]), true
		} else if st := &e.streaks[i]; e.pol == nil && st.Load() != 0 {
			st.Store(0)
		}
	}
	if e.pol != nil && !voted && len(out) > 0 {
		e.optimal(t.edges[out[0]].Dir)
	}
	return to, fire
}

// Vote is Observe's vote alone, on a named edge: one request served
// while mode from was sub-optimal in a way the from→to transition would
// cure, judged against the streak threshold limit — or, with an injected
// policy, charged the edge's Residual for the policy to decide. Panics if
// the table does not permit from→to.
func (e *Engine) Vote(t *Table, from, to Mode, limit int32) bool {
	i := t.edge(from, to)
	if e.pol == nil {
		return e.streaks[i].Add(1) >= limit
	}
	e.acquire()
	// The release is deferred so a panicking user policy cannot leak the
	// lock and wedge every later detection event on this engine.
	defer e.release()
	// dirty transitions only under the lock, so a vote racing a switch
	// cannot leave the flag false while the policy holds pressure.
	e.dirty.Store(true)
	return e.pol.Suboptimal(t.edges[i].Dir, t.edges[i].Residual)
}

// optimal forwards one optimally served request to the injected policy.
// The call is elided while the engine is quiescent (no vote has raised
// switching pressure): only Suboptimal moves a policy toward a switch,
// so skipping Optimal notifications in that state cannot change any
// decision. It is also elided when the lock is busy — another goroutine
// is already feeding the policy, and Optimal events are a stream, not a
// count — so a fast path observing Calm can never serialize on the
// engine lock. A policy implementing policy.Quiescer re-arms the elision
// as soon as its pressure has decayed to zero, returning a long-lived
// primitive's fast path to a single atomic load.
func (e *Engine) optimal(dir policy.Direction) {
	if !e.dirty.Load() || !e.lock.CompareAndSwap(0, 1) {
		return
	}
	defer e.release()
	e.pol.Optimal(dir)
	if q, ok := e.pol.(policy.Quiescer); ok && q.Quiescent() {
		e.dirty.Store(false)
	}
}

// TryCommit attempts the from→to transition: the consensus step. It
// succeeds only if the engine is still in mode from — exactly one caller
// wins any given epoch, so a primitive performs each protocol change at
// most once per detection round — and advances the epoch by one in the
// same atomic word. On success all streaks are reset and the policy is
// informed. Callers perform mode-specific preparation (building the
// target protocol's state) before calling, and migration effects (waking
// stranded waiters) after a true return. Panics if the table does not
// permit from→to.
func (e *Engine) TryCommit(t *Table, from, to Mode) bool {
	t.edge(from, to) // validate: every commit passes through the table
	for {
		w := e.word.Load()
		if Mode(w&modeMask) != from {
			return false
		}
		epoch, _ := Unpack(w)
		chaos.Point("modal.commit.window")
		if e.word.CompareAndSwap(w, pack(epoch+1, to)) {
			break
		}
	}
	e.switches.Add(1)
	e.switched(t)
	return true
}

// switched resets detection state after a committed transition.
func (e *Engine) switched(t *Table) {
	if e.pol == nil {
		for i := range t.edges {
			e.streaks[i].Store(0)
		}
		return
	}
	e.acquire()
	defer e.release()
	e.pol.Switched()
	e.dirty.Store(false)
}

// Decider is the unsynchronized modal-object selector for callers that
// already serialize detection — the cycle-level simulator, whose event
// engine runs one actor at a time and whose reactive algorithms hold a
// simulated consensus object across every detection event. It validates
// transitions against the same Table the native engine uses and forwards
// events to the same policies; the mode itself lives with the caller (in
// simulated memory), as do streak thresholds computed from simulated
// signals.
type Decider struct {
	tab *Table
	// pol points at the owner's policy field so callers may keep a
	// public, reassignable Policy configuration surface.
	pol *policy.Policy
}

// NewDecider builds a decider over t, reading the current policy through
// pol on every call.
func NewDecider(t *Table, pol *policy.Policy) *Decider {
	if t == nil || pol == nil {
		panic("modal: NewDecider needs a table and a policy pointer")
	}
	return &Decider{tab: t, pol: pol}
}

// Table returns the decider's transition table.
func (d *Decider) Table() *Table { return d.tab }

// Suboptimal records one request served while mode from was sub-optimal
// in a way the from→to transition would cure, charging the edge's
// residual, and reports whether the policy says to switch now. Panics if
// the table does not permit from→to.
func (d *Decider) Suboptimal(from, to Mode) bool {
	i := d.tab.edge(from, to)
	return (*d.pol).Suboptimal(d.tab.edges[i].Dir, d.tab.edges[i].Residual)
}

// Optimal records one request served optimally with respect to the
// from→to transition. Panics if the table does not permit from→to.
func (d *Decider) Optimal(from, to Mode) {
	i := d.tab.edge(from, to)
	(*d.pol).Optimal(d.tab.edges[i].Dir)
}

// Switched informs the policy that the from→to protocol change was
// carried out, validating it against the table — the consensus step a
// simulated transition must still pass through even though its memory
// effects happen in simulated memory. Panics if the table does not
// permit from→to.
func (d *Decider) Switched(from, to Mode) {
	d.tab.edge(from, to)
	(*d.pol).Switched()
}
