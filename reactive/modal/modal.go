// Package modal implements the modal-object engine at the heart of Lim &
// Agarwal's reactive synchronization framework. A modal object is a set
// of protocols (modes) implementing one synchronization operation, plus a
// consensus-serialized way to change which protocol is selected. Every
// modal object in the thesis moves one protocol at a time — the reactive
// spin lock along test&set ↔ queue, the reactive fetch-and-op along
// lock-based central word ↔ queue ↔ combining tree — so a modal object's
// modes form a chain, and this package is the shape those chains share,
// extracted so that every future primitive is a table of steps rather
// than a rewrite.
//
// The package deliberately contains only the pure protocol-selection
// logic:
//
//   - Table — an immutable chain 0 ↔ 1 ↔ … ↔ N-1. Each link has one up
//     step (toward the more scalable protocol; policy direction 0) and
//     one down step (toward the cheaper one; direction 1), and each step
//     carries the residual cost charged to a competitive policy when its
//     source mode serves a request sub-optimally and the Signal (class of
//     observation) that votes for it.
//   - Engine — the goroutine-safe selector used by the native primitives
//     in package reactive: a mode word changed only by compare-and-swap
//     (the consensus-object analogue — of racing commits out of one mode
//     exactly one wins), and either the built-in detector — the thesis's
//     hysteresis(x, y), one streak per policy direction — or an injected
//     policy.Policy serialized by a waitq.Lock.
//   - Decider — the unsynchronized variant used by the cycle-level
//     simulator, whose event engine and simulated consensus objects
//     already serialize detection; it validates steps against the same
//     Table and forwards votes to the same policies.
//
// Memory and waiting effects — what a mode *is*, how waiters migrate
// across a change — stay with the caller; the engine only decides and
// serializes. Both ways a caller waits, the short spin and the two-phase
// park, are reactive/internal/waitq's.
package modal

import (
	"fmt"
	"slices"
	"sync/atomic"

	"repro/reactive/internal/waitq"
	"repro/reactive/policy"
)

// Mode indexes a protocol within one modal object. Modes are dense small
// integers local to the object, in chain order: a table over N modes uses
// 0..N-1, and the zero mode is the object's initial (cheapest) protocol.
type Mode uint32

// Signal classifies one request a modal object served — the monitoring
// half of the thesis's monitor/policy split (§3.4). A primitive's
// detection sites only classify; which step a class votes for is the
// table's On column, applied by Engine.Observe.
type Signal uint8

const (
	// None, the zero value, votes for nothing; as a step's On it marks a
	// step only an explicit TryCommit takes.
	None Signal = iota
	// Calm: no contention met — a scalable protocol served sub-optimally.
	Calm
	// Busy: contention met — a cheap protocol served sub-optimally.
	Busy
	// BusyRead is Busy met by a read-only request. A step declared
	// On: BusyRead is voted for by contended reads alone; a step
	// declared On: Busy accepts both.
	BusyRead
)

// accepts reports whether a step declared On: on takes signal s's vote.
func (on Signal) accepts(s Signal) bool {
	return s != None && (on == s || on == Busy && s == BusyRead)
}

// Step is one move along a Table's chain.
type Step struct {
	// Residual is the extra cost charged to an injected policy
	// (policy.Policy.Suboptimal) each time the step's source mode serves
	// a request this step's detection classifies as sub-optimal.
	Residual uint64
	// On is the observation that votes for this step while its source
	// mode is selected (see Engine.Observe); every other observation
	// confirms the source mode over the step's target.
	On Signal
}

// Table is an immutable chain of modes: which protocol changes a modal
// object permits — one protocol at a time, in either direction — and how
// each step's detection events map onto a switching policy. One Table is
// typically a package-level variable shared by every instance of a
// primitive; per-instance state lives in the Engine (or Decider).
type Table struct {
	// steps is indexed by policy direction: steps[0][i] is the up step
	// i→i+1, steps[1][i] the down step i+1→i.
	steps [2][]Step
}

// NewTable builds the chain whose up[i] is the step i→i+1 (policy
// direction 0: contention appeared) and whose down[i] is the step i+1→i
// (direction 1: contention disappeared), over len(up)+1 modes, of any
// number. It panics — at package init time in practice — unless up and
// down are non-empty and equally long, or if a mode's down and up steps
// accept one signal (an observation votes for at most one step).
func NewTable(up, down []Step) *Table {
	if len(up) == 0 || len(up) != len(down) {
		panic(fmt.Sprintf("modal: a chain needs as many down steps as up steps, at least one (got %d, %d)", len(up), len(down)))
	}
	for m := 1; m < len(up); m++ {
		if d, u := down[m-1].On, up[m].On; d.accepts(u) || u.accepts(d) {
			panic(fmt.Sprintf("modal: one signal votes for both %d→%d and %d→%d", m, m-1, m, m+1))
		}
	}
	return &Table{steps: [2][]Step{slices.Clone(up), slices.Clone(down)}}
}

// N returns the number of modes.
func (t *Table) N() int { return len(t.steps[0]) + 1 }

// Step returns the from→to step. It panics unless from and to are
// adjacent modes of the chain.
func (t *Table) Step(from, to Mode) Step {
	_, s := t.step(from, to)
	return s
}

// step resolves from→to to its policy direction, panicking on a move
// that is not a step of the chain — the consensus step every protocol
// change must pass through; a non-step is a programming error in the
// calling primitive, never a data-dependent condition.
func (t *Table) step(from, to Mode) (dir policy.Direction, s Step) {
	switch f, g := int(from), int(to); {
	case g == f+1 && g < t.N():
		return 0, t.steps[0][f]
	case f == g+1 && f < t.N():
		return 1, t.steps[1][g]
	}
	panic(fmt.Sprintf("modal: %d→%d is not a step of a %d-mode chain", from, to, t.N()))
}

// Engine is the goroutine-safe modal-object selector. The zero value is
// an engine in mode 0 using built-in detection (see Observe); it is
// ready to use with any Table (the table is passed into each call so one
// static table serves every instance and the zero value stays
// allocation-free). An Engine must not be copied after first use, and
// must not be used with more than one Table.
type Engine struct {
	// word is the current Mode — the consensus object serializing mode
	// changes. All transitions go through TryCommit's CAS; everything
	// else only reads it.
	word atomic.Uint32

	pol policy.Policy // nil: built-in per-direction streak detection

	// lock serializes calls into pol (policies are deliberately
	// unsynchronized). Taken only on detection events, never on a
	// primitive's uncontended fast path; its waiters back off randomly,
	// so a hot injected policy does not become a contention hotspot.
	lock  waitq.Lock
	dirty atomic.Bool // a sub-optimal vote reached pol since the last switch

	streaks  [2]atomic.Int32 // built-in detection's, indexed by policy direction
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
func (e *Engine) Mode() Mode { return Mode(e.word.Load()) }

// Switches returns the number of committed transitions.
func (e *Engine) Switches() uint64 { return e.switches.Load() }

// Dirty reports whether a sub-optimal vote has reached the injected
// policy since the last transition or re-quiescence — i.e. whether
// Optimal events are currently being forwarded rather than elided. Always
// false with built-in detection. Intended for tests and introspection.
func (e *Engine) Dirty() bool { return e.dirty.Load() }

// Observe is the whole detection rule: one request served in mode from
// was classified as s. The step out of from whose On accepts s takes the
// vote — from was sub-optimal in the way that step cures — and the other
// step out of from, if any, is confirmed, breaking its direction's
// streak. fire
// reports that the caller should attempt from→to now (via TryCommit,
// after any mode-specific preparation). limits holds the built-in
// detection's streak thresholds indexed by the voted step's direction:
// the fail limit up the chain, the empty limit down it.
//
// Built-in detection is hysteresis(x, y) without a lock: one streak per
// direction, not per step, zeroed by every commit, so observations made
// in the current mode decide as policy.NewHysteresis(limits[0],
// limits[1]) does. An observation made with a stale from (a step was
// committed since the caller loaded it) counts in its direction's streak,
// which now serves the current mode, as an injected policy counts it.
//
// An injected policy hears exactly one event per observation: the voted
// step's Suboptimal, or — when no step accepts s — one Optimal, in the
// down direction if from has a down step and the up direction otherwise.
// Never both, and never one per step: the Policy interface keeps no
// per-step state, so an Optimal sent for a confirmed step would erase the
// pressure the same observation's vote raised (Hysteresis.Optimal zeroes
// both streaks), and two Optimals would age a WeightedAverage twice for
// one request. Panics if from is out of range.
func (e *Engine) Observe(t *Table, from Mode, s Signal, limits [2]int32) (to Mode, fire bool) {
	// The two steps out of from are spelled out rather than looped over or
	// judged in a helper: Observe is on every primitive's fast path, and
	// both of those measured 1.5–4 ns slower per call.
	up, down, f := t.steps[0], t.steps[1], int(from)
	if f > len(up) {
		panicRange(from, t)
	}
	voted := false
	if f > 0 { // the down step, direction 1
		if st := &down[f-1]; st.On.accepts(s) {
			to, fire, voted = from-1, e.vote(1, st.Residual, limits[1]), true
		} else if e.pol == nil && e.streaks[1].Load() != 0 {
			e.streaks[1].Store(0)
		}
	}
	if f < len(up) { // the up step, direction 0
		if st := &up[f]; st.On.accepts(s) {
			to, fire, voted = from+1, e.vote(0, st.Residual, limits[0]), true
		} else if e.pol == nil && e.streaks[0].Load() != 0 {
			e.streaks[0].Store(0)
		}
	}
	if e.pol != nil && !voted {
		dir := policy.Direction(0)
		if f > 0 {
			dir = 1
		}
		e.optimal(dir)
	}
	return to, fire
}

// panicRange is Observe's out-of-range panic, out of line: its
// formatting would otherwise count against Observe's own body.
//
//go:noinline
func panicRange(from Mode, t *Table) {
	panic(fmt.Sprintf("modal: mode %d out of range for %d modes", from, t.N()))
}

// CalmBottom is Observe(t, 0, Calm, …) on a primitive's uncontended fast
// path, small enough to inline: with built-in detection, a Calm in the
// chain's bottom mode votes for nothing (mode 0 has no down step) and
// only confirms the up step, resetting the up streak if it is nonzero.
// CalmBottom does that and reports true. With an injected policy, or a
// table whose bottom up step is itself voted by Calm, it does nothing
// and reports false, and the caller calls Observe. The caller has
// observed mode 0.
func (e *Engine) CalmBottom(t *Table) bool {
	if e.pol != nil || t.steps[0][0].On == Calm {
		return false
	}
	if e.streaks[0].Load() != 0 {
		e.streaks[0].Store(0)
	}
	return true
}

// Vote is Observe's vote alone, on a named step: one request served
// while mode from was sub-optimal in a way the from→to step would cure,
// judged against the streak threshold limit — or, with an injected
// policy, charged the step's Residual for the policy to decide. The vote
// counts in the built-in streak of the step's direction. Panics if
// from→to is not a step of the table.
func (e *Engine) Vote(t *Table, from, to Mode, limit int32) bool {
	dir, st := t.step(from, to)
	return e.vote(dir, st.Residual, limit)
}

// vote counts one vote in direction dir: a streak bump with built-in
// detection, a Suboptimal for an injected policy.
func (e *Engine) vote(dir policy.Direction, residual uint64, limit int32) bool {
	if e.pol == nil {
		return e.streaks[dir].Add(1) >= limit
	}
	e.lock.Lock(nil)
	// The release is deferred so a panicking user policy cannot leak the
	// lock and wedge every later detection event on this engine.
	defer e.lock.Unlock()
	// dirty transitions only under the lock, so a vote racing a switch
	// cannot leave the flag false while the policy holds pressure.
	e.dirty.Store(true)
	return e.pol.Suboptimal(dir, residual)
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
	if !e.dirty.Load() || !e.lock.TryLock() {
		return
	}
	defer e.lock.Unlock()
	e.pol.Optimal(dir)
	if q, ok := e.pol.(policy.Quiescer); ok && q.Quiescent() {
		e.dirty.Store(false)
	}
}

// TryCommit attempts the from→to step: the consensus step, one CAS on
// the mode word. It succeeds only if the engine is still in mode from —
// of racing commits out of one mode exactly one wins, so a primitive
// performs each protocol change at most once per detection round. On
// success the switch is counted, all streaks are reset and the policy is
// informed.
// Callers perform mode-specific preparation (building the target
// protocol's state) before calling, and migration effects (waking
// stranded waiters) after a true return. Panics if from→to is not a step
// of the table.
func (e *Engine) TryCommit(t *Table, from, to Mode) bool {
	t.step(from, to) // validate: every commit passes through the table
	if !e.word.CompareAndSwap(uint32(from), uint32(to)) {
		return false
	}
	e.switches.Add(1)
	e.switched()
	return true
}

// switched resets detection state after a committed step.
func (e *Engine) switched() {
	if e.pol == nil {
		e.streaks[0].Store(0)
		e.streaks[1].Store(0)
		return
	}
	e.lock.Lock(nil)
	defer e.lock.Unlock()
	e.pol.Switched()
	e.dirty.Store(false)
}

// Decider is the unsynchronized modal-object selector for callers that
// already serialize detection — the cycle-level simulator, whose event
// engine runs one actor at a time and whose reactive algorithms hold a
// simulated consensus object across every detection event. It validates
// steps against the same Table the native engine uses and forwards
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

// Suboptimal records one request served while mode from was sub-optimal
// in a way the from→to step would cure, charging the step's residual,
// and reports whether the policy says to switch now. Panics if from→to
// is not a step of the table.
func (d *Decider) Suboptimal(from, to Mode) bool {
	dir, st := d.tab.step(from, to)
	return (*d.pol).Suboptimal(dir, st.Residual)
}

// Optimal records one request served optimally with respect to the
// from→to step. Panics if from→to is not a step of the table.
func (d *Decider) Optimal(from, to Mode) {
	dir, _ := d.tab.step(from, to)
	(*d.pol).Optimal(dir)
}

// Switched informs the policy that the from→to protocol change was
// carried out, validating it against the table — the consensus step a
// simulated change must still pass through even though its memory
// effects happen in simulated memory. Panics if from→to is not a step of
// the table.
func (d *Decider) Switched(from, to Mode) {
	d.tab.step(from, to)
	(*d.pol).Switched()
}
