// Package reactive provides adaptive synchronization primitives for Go
// programs, after Beng-Hong Lim's "Reactive Synchronization Algorithms for
// Multiprocessors" (MIT, 1994).
//
// The thesis's two ideas are (1) dynamically selecting the protocol that
// implements a synchronization operation based on run-time contention, and
// (2) two-phase waiting: poll until the cost of polling reaches Lpoll, then
// switch to a signaling (blocking) mechanism; with Lpoll ≈ 0.54·B the
// expected waiting cost is within e/(e−1) ≈ 1.58 of optimal for
// exponentially distributed waits.
//
// Five primitives — Mutex, RWMutex, Counter, FetchOp, and Map — realize
// both ideas to the extent the Go runtime allows.
// The Go scheduler owns thread placement and preemption, so cycle-exact
// spin-lock protocol behavior (the cache-invalidation effects the thesis
// measures on Alewife) is not observable here — the faithful reproduction
// of those experiments lives in the internal simulator packages. What
// carries over soundly to Go is:
//
//   - protocol-mode selection among the modes of a modal object (the
//     reactive/modal engine): a cheap protocol (best uncontended), a
//     scalable protocol (best contended), switched by the thesis's
//     detection heuristics. Mutex selects between barging spin and FIFO
//     parking, Counter and FetchOp between a single compare-and-swap
//     word and sharded per-processor cells, and RWMutex (whose writers
//     queue on a Mutex) between a centralized reader count,
//     BRAVO-style per-processor deposits validated against it, and the
//     same deposits validated against an epoch gate no reader writes;
//     Map among one spin-locked table (its sharded store at one
//     partition), hash-sharded tables, and a table of per-key value
//     cells read on the epoch kernel; and
//   - two-phase waiting wherever a primitive blocks, with Lpoll a fixed
//     count of polling iterations (WithPollIters), not calibrated per host.
//
// Every wait is cancellable: LockCtx, RLockCtx, TryLockFor, ValueCtx,
// and LoadCtx bound an acquisition by a context's cancellation or
// deadline (the semaphore.Weighted.Acquire idiom), returning ctx.Err()
// promptly in either wait phase, while Lock, RLock, Value, and Load stay
// thin zero-allocation wrappers over the same paths. Every blocking
// wait is one call to the shared two-phase wait of the waiter-queue
// engine (reactive/internal/waitq): an intrusive FIFO of per-goroutine
// wait nodes whose handoff-or-abandon discipline passes a wakeup
// delivered to a cancelled waiter on to the next one, so cancellation
// can never strand a waiter (DESIGN.md §5). Every primitive reports the same
// Stats shape: current mode, committed protocol changes, parked
// waiters, and (for RWMutex) the reader-registration protocol. Stats
// marshals to JSON, Stats.Sub turns two snapshots into an interval
// delta with documented monotonic-counter semantics (DESIGN.md §6),
// and the reactive/reactivehttp subpackage exports a registry of named
// primitives over expvar and a /debug/reactive HTTP endpoint.
//
// The zero value of each type is ready to use with the package-default
// tunables. New, NewRWMutex, NewCounter, NewFetchOp, and NewMap accept
// Options that change the detection thresholds (WithSpinFailLimit,
// WithEmptyLimit), the polling budget (WithPollIters), the starting
// protocol (WithInitialMode), or replace the built-in streak detection
// with any policy from the reactive/policy package (WithPolicy) — the
// same Policy interface the simulator's reactive algorithms consume,
// up to policy.Congestion's AIMD window over an RFC 6298-style
// residual-cost estimator.
// All mode changes, in every primitive, go through the same
// reactive/modal transition engine the simulator's algorithms validate
// against, the sharded protocols select their per-processor shard
// through one affinity substrate (reactive/internal/affinity, the
// runtime's procPin pair with a portable fallback), and the epoch modes
// of RWMutex and Map run on one grace-period kernel
// (reactive/internal/epoch, DESIGN.md §8).
package reactive

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/reactive/internal/chaos"
	"repro/reactive/internal/waitq"
	"repro/reactive/modal"
)

// Mode identifies the protocol an adaptive primitive is currently using.
type Mode uint32

// Protocol modes. Mutex (and so RWMutex's writer mutex) alternates
// between ModeSpin and ModePark; Counter and FetchOp move between
// ModeCAS and ModeSharded (their table's third stage, ModeCombining, is
// constructible but never selected by detection); RWMutex's reader
// registration protocol (Stats().Readers) moves along its own chain
// ModeCAS (centralized word) ↔ ModeSharded (per-P cells validated
// against that word) ↔ ModeEpoch (the same cells validated against the
// epoch gate); Map moves along the chain ModeLocked (one table under one
// spin word) ↔ ModeSharded (per-shard spin words) ↔ ModeEpoch (one index
// of value cells read on the epoch kernel: Puts and Deletes of known
// keys CAS a cell without a lock, an insert of a fresh key adds its
// cell under a grace-period claim).
const (
	// ModeSpin is the test-and-test-and-set analogue: waiters spin with
	// randomized exponential backoff; unlock releases the lock word for
	// anyone to barge on. Cheapest when contention is rare.
	ModeSpin Mode = iota
	// ModePark is the queue-lock analogue: waiters spin only through the
	// two-phase polling budget and then park on a FIFO semaphore; unlock
	// wakes the oldest parked waiter. Scalable under contention.
	ModePark
	// ModeCAS is Counter's and FetchOp's cheap protocol: one shared word
	// updated by compare-and-swap. The TTS-lock fetch-and-op analogue.
	ModeCAS
	// ModeSharded is Counter's and FetchOp's scalable protocol:
	// per-processor cells reconciled by Load/Value. The parallel-update
	// middle protocol, analogous to the simulator's queue-based
	// fetch-and-op: larger fixed cost than ModeCAS, far better under
	// update contention, but every read pays a full reconciling sweep.
	ModeSharded
	// ModeCombining is the third stage of FetchOp's (and Counter's)
	// chain, the combining-tree analogue: updates land in
	// per-processor cells and updaters batch-fold the cells into the
	// shared word once enough operations accumulate. It is dominated by
	// ModeSharded by construction — an update is the sharded update plus
	// a read-modify-write on a shared deposit count plus a share of the
	// folds, and a read runs the same serialized sweep — so it is
	// constructible (WithInitialMode) and self-demoting (idle sweeps
	// retire it to ModeSharded), but never selected by detection.
	ModeCombining
	// ModeEpoch is RWMutex's most scalable reader registration protocol
	// (and Map's most scalable protocol), the userspace-RCU read-side
	// analogue: RLock deposits only a local online count in its per-P
	// cell and RUnlock withdraws it — neither stores to a shared word,
	// so contended reads stop generating coherence traffic entirely.
	// Writers claim a gate word readers only load and sweep the cells
	// until every registered reader has gone offline. Best when reads
	// vastly outnumber writes; writers pay a full grace period.
	ModeEpoch
	// ModeLocked is Map's cheapest protocol: the sharded store at one
	// partition, one dense array of pairs and an index into it under one
	// short-term spin word, so every operation pays one lock word.
	// Cheapest when operations are rare or single-threaded; collapses
	// when readers and writers collide, and SpinFailLimit contended
	// operations in a row promote the map to ModeSharded.
	ModeLocked
)

// modeNames spells each mode's name once, indexed by Mode: String
// renders from it and UnmarshalText looks names up in it.
var modeNames = [...]string{
	ModeSpin:      "spin",
	ModePark:      "park",
	ModeCAS:       "cas",
	ModeSharded:   "sharded",
	ModeCombining: "combining",
	ModeEpoch:     "epoch",
	ModeLocked:    "locked",
}

// String names the mode; a value outside the defined modes renders as
// Mode(n), which UnmarshalText rejects.
func (m Mode) String() string {
	if int(m) < len(modeNames) {
		return modeNames[m]
	}
	return fmt.Sprintf("Mode(%d)", uint32(m))
}

// Lock-word states.
const (
	unlocked uint32 = 0
	locked   uint32 = 1
)

// Engine-local mode indices for Mutex's spin/park modal object. They
// coincide with the public ModeSpin/ModePark values, so Stats conversion
// is the identity.
const (
	mSpin modal.Mode = 0
	mPark modal.Mode = 1
)

var spinParkModes = []Mode{ModeSpin, ModePark}

// spinParkTable is Mutex's 2-mode chain, spin ↔ park — and only Mutex's:
// RWMutex and Map run it through their embedded writer Mutex. It is the
// degenerate — but still consensus-serialized — modal object of the
// thesis's reactive spin lock.
var spinParkTable = modal.NewTable(
	[]modal.Step{{Residual: ResidualCheapHigh, On: modal.Busy}},
	[]modal.Step{{Residual: ResidualScalableLow, On: modal.Calm}})

// signalOf classifies one request by whether it met contention — all a
// detection site says; what that votes for is its table's On column.
func signalOf(contended bool) modal.Signal {
	if contended {
		return modal.Busy
	}
	return modal.Calm
}

// Default tunables; the defaults follow the thesis's shape: switch to the
// scalable protocol after a streak of contended acquisitions, back after
// a streak of uncontended ones, and poll a bounded budget before parking
// (the thesis's Lpoll = 0.54·B; here a constant, not a measurement of B).
// Override with WithSpinFailLimit, WithEmptyLimit, and WithPollIters.
const (
	// DefaultSpinFailLimit is the number of consecutive contended lock
	// acquisitions before switching ModeSpin → ModePark (and the analogous
	// scale-up thresholds of Counter, FetchOp, and RWMutex).
	DefaultSpinFailLimit = 3
	// DefaultEmptyLimit is the number of consecutive uncontended unlocks
	// before switching ModePark → ModeSpin (and the analogous scale-down
	// thresholds of Counter, FetchOp, and RWMutex).
	DefaultEmptyLimit = 8
	// DefaultPollIters is the two-phase polling budget before parking: a
	// constant 60 yields, not calibrated against this host's blocking cost.
	DefaultPollIters = 60
)

// Mutex is a reactive mutual-exclusion lock. The zero value is an unlocked
// mutex in spin mode with the package-default tunables; New builds one
// with explicit Options. A Mutex must not be copied after first use.
type Mutex struct {
	state atomic.Uint32 // unlocked / locked

	// eng is the modal-object engine holding the mode word and the
	// detection state; all protocol changes go through its
	// consensus CAS.
	eng modal.Engine

	cfg config

	// q holds the parked waiters of the two-phase parking protocol: the
	// shared waiter-queue engine every primitive in this package blocks
	// through (see reactive/internal/waitq and DESIGN.md §5). It comes
	// last so its lock word, which every park and grant stores to, sits a
	// cache line past state and the mode word (TestHotWordsOffQueueLines).
	q waitq.Queue
}

// New builds a Mutex configured by opts. New() with no options is
// equivalent to a zero-value Mutex.
func New(opts ...Option) *Mutex {
	m := &Mutex{}
	construct(opts, &m.cfg, &m.eng, spinParkModes, m.switchMode)
	return m
}

// failLimit, emptyLimit, pollIters resolve the configured tunables,
// falling back to the package defaults so the zero value works.
func (c *config) failLimit() int32 {
	if c.spinFailLimit > 0 {
		return c.spinFailLimit
	}
	return DefaultSpinFailLimit
}

func (c *config) emptyLim() int32 {
	if c.emptyLimit > 0 {
		return c.emptyLimit
	}
	return DefaultEmptyLimit
}

func (c *config) pollBudget() int32 {
	if c.pollIters > 0 {
		return c.pollIters
	}
	return DefaultPollIters
}

// limits is the streak-threshold pair Observe indexes by a step's
// direction: the fail limit scaling up, the empty limit scaling down.
func (c *config) limits() [2]int32 {
	return [2]int32{c.failLimit(), c.emptyLim()}
}

// Stats is the one observability surface shared by every primitive in
// this package: the protocol currently selected, how many protocol
// changes have been committed, how many goroutines are blocked in a
// phase-two wait, and — for RWMutex only — the orthogonal reader
// registration protocol's state.
//
// A Stats value marshals to JSON with lower-case field names and the
// Mode rendered as its protocol name ("spin", "park", "cas", "sharded",
// "combining", "epoch", "locked"); Sub converts two snapshots into a delta
// whose monotonic counters can be divided by the polling interval to
// obtain rates (see DESIGN.md §6 and the reactive/reactivehttp package).
type Stats struct {
	// Mode is the currently selected protocol: the wait protocol for
	// Mutex and for RWMutex's writer mutex (ModeSpin/ModePark; RWMutex's
	// readers always wait two-phase), the update protocol for
	// Counter and FetchOp (ModeCAS/ModeSharded/ModeCombining), the map
	// protocol for Map (ModeLocked/ModeSharded/ModeEpoch). A gauge: Sub
	// keeps the newer snapshot's value.
	Mode Mode `json:"mode"`
	// Switches counts the protocol changes committed by that mode's
	// engine. Monotonic: Sub returns the difference.
	Switches uint64 `json:"switches"`
	// Waiters counts the goroutines currently parked (or committing to
	// park) on the primitive's waiter queues: lockers for Mutex; parked
	// readers, a draining writer, and writers queued on the writer mutex
	// for RWMutex; reconciling readers waiting for the sweep window for
	// Counter and FetchOp. A gauge: Sub keeps the newer snapshot's value.
	Waiters int `json:"waiters"`
	// Readers describes RWMutex's reader registration protocol — the
	// three-mode chain centralized CAS word ↔ per-P cells validated
	// against it ↔ the same cells validated against the epoch gate — and
	// its grace-period counters; nil for every other primitive (Map
	// reports its grace periods in MapStats).
	Readers *ReaderStats `json:"readers,omitempty"`
}

// ReaderStats describes RWMutex's reader registration modal object — the
// protocol readers use to register when no writer is about, orthogonal to
// the writer mutex's spin/park protocol in Stats.Mode.
type ReaderStats struct {
	// Mode is ModeCAS while readers register on the centralized word,
	// ModeSharded while they register in the epoch kernel's per-P cells
	// and validate against that word, ModeEpoch while they validate
	// against the kernel's gate instead. A gauge under Sub.
	Mode Mode `json:"mode"`
	// Switches counts committed registration-protocol changes.
	// Monotonic: Sub returns the difference.
	Switches uint64 `json:"switches"`
	// Shards is the per-P cell count once the one per-P array (shared
	// by the sharded and epoch protocols) exists, 0 while the lock has
	// only ever registered readers centrally. A gauge under Sub.
	Shards int `json:"shards"`
	// Graces counts completed writer grace periods: drains that ran
	// while the epoch registration protocol was selected, each of which
	// claimed the epoch gate and swept the per-P cells until every
	// registered reader had gone offline. Monotonic: Sub returns the
	// difference.
	Graces uint64 `json:"graces"`
	// QuietGraces counts the grace periods that found no online epoch
	// reader at all — the epoch machinery going unused across a whole
	// writer round, the scale-down signal back toward sharded mode.
	// Monotonic: Sub returns the difference.
	QuietGraces uint64 `json:"quiet_graces"`
}

// Stats returns a snapshot of the mutex's adaptive state.
func (m *Mutex) Stats() Stats {
	return Stats{
		Mode:     Mode(m.eng.Mode()),
		Switches: m.eng.Switches(),
		Waiters:  m.q.Len(),
	}
}

// TryLock attempts to acquire the mutex without waiting.
func (m *Mutex) TryLock() bool {
	return m.state.CompareAndSwap(unlocked, locked)
}

// TryLockFor attempts to acquire the mutex, waiting (adaptively, like
// Lock) for at most d. It reports whether the mutex was acquired.
func (m *Mutex) TryLockFor(d time.Duration) bool {
	if m.lockFast() {
		return true
	}
	if d <= 0 {
		return false
	}
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	return m.LockCtx(ctx) == nil
}

// Lock acquires the mutex, adapting its waiting protocol to contention.
// It is the uncancellable special case of LockCtx — equivalent to
// LockCtx(context.Background()), and exactly as cheap: the context plumbing
// costs nothing until a waiter actually blocks.
func (m *Mutex) Lock() {
	if m.lockFast() {
		return
	}
	m.lockSlow(nil)
}

// lockFast is the optimistic fast path (the thesis's optimistic
// test&set), shared by Lock and LockCtx.
func (m *Mutex) lockFast() bool {
	if m.state.CompareAndSwap(unlocked, locked) {
		// Detection is mode-directional, as in the simulator's reactive
		// lock: spin mode monitors the cheap→scalable direction only.
		// The built-in path is CalmBottom, which inlines: an uncontended
		// acquisition in the bottom mode votes for nothing, and the
		// guard's defer — or a call frame that does not inline — would
		// tax every acquisition. With an injected policy the notification
		// goes through noteSpinAcquire's panic guard — the lock is
		// already held here, and a panicking policy must not strand it.
		if m.eng.Mode() == mSpin && !m.eng.CalmBottom(spinParkTable) {
			m.noteSpinAcquire(0)
		}
		return true
	}
	return false
}

// observe reports one classified request served in mode from and carries
// out the protocol change detection fires.
func (m *Mutex) observe(from modal.Mode, s modal.Signal) {
	if to, fire := m.eng.Observe(spinParkTable, from, s, m.cfg.limits()); fire {
		m.switchMode(from, to)
	}
}

// LockCtx acquires the mutex like Lock, but gives up when ctx is
// cancelled or its deadline passes, returning ctx.Err(). The error is
// returned promptly in both wait protocols: a polling waiter stops
// mid-budget, and a parked waiter is unparked. A waiter whose
// cancellation races an Unlock's wakeup passes the wakeup on to the next
// waiter before returning, so a cancelled acquisition can never strand
// the lock (see DESIGN.md §5 for the proof). On a cancelled context
// LockCtx returns without acquiring; on a nil error the caller holds the
// lock and must Unlock it.
func (m *Mutex) LockCtx(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if m.lockFast() {
		return nil
	}
	return ctxErr(ctx, m.lockSlow(ctx.Done()))
}

// ctxErr is what a *Ctx method returns after a wait that reported
// aborted: ctx.Err() if it did, nil if it did not. The unexported waits
// take only ctx.Done(), so a nil done makes them uncancellable.
func ctxErr(ctx context.Context, aborted bool) error {
	if aborted {
		return ctx.Err()
	}
	return nil
}

// lockSlow dispatches a contended acquisition to the selected waiting
// protocol and reports whether done closed first. A nil done means the
// wait is uncancellable, so Lock pays nothing for the context plumbing.
func (m *Mutex) lockSlow(done <-chan struct{}) (aborted bool) {
	if m.eng.Mode() == mSpin {
		return m.lockSpin(done)
	}
	return m.lockPark(done)
}

// noteSpinAcquire classifies one spin-mode acquisition: one that failed
// at least one test&set before succeeding was contended. With the
// built-in detection, SpinFailLimit consecutive contended acquisitions
// switch ModeSpin → ModePark — exactly the documented streak semantics.
func (m *Mutex) noteSpinAcquire(fails int) {
	// The caller holds the lock; with an injected policy the
	// notification runs under a panic guard that releases the lock
	// before re-raising, so a faulty policy surfaces as a crash, not a
	// wedged mutex. lockFast's injected-policy branch comes here too.
	if m.eng.Policy() != nil {
		defer func() {
			if r := recover(); r != nil {
				m.Unlock()
				panic(r)
			}
		}()
	}
	m.observe(mSpin, signalOf(fails > 0))
}

// lockSpin is the test-and-test-and-set protocol with randomized
// exponential backoff. It migrates to the parking protocol if the mode
// changes mid-wait, and gives up between attempts once done closes.
func (m *Mutex) lockSpin(done <-chan struct{}) (aborted bool) {
	var bo waitq.Backoff
	fails := 0
	for {
		// Read-poll (cached) before attempting the RMW.
		if m.state.Load() == unlocked && m.state.CompareAndSwap(unlocked, locked) {
			m.noteSpinAcquire(fails)
			return false
		}
		if done != nil {
			select {
			case <-done:
				return true
			default:
			}
		}
		fails++
		bo.Pause()
		if m.eng.Mode() == mPark {
			return m.lockPark(done)
		}
	}
}

// lockPark is the parking protocol: the shared two-phase wait (poll
// through the deadline-aware budget, then park on the waiter queue until
// an unlocker grants a wakeup) over TryLock. Grants are hints, not
// ownership transfers — the woken waiter re-competes for the state word
// — so the protocol's invariant is purely about wakeups: the wait's push
// is the waiter's one announcement, every Unlock that finds the queue
// non-empty grants, and a waiter that stops waiting while holding a
// grant passes it on through the wait's abandon.
func (m *Mutex) lockPark(done <-chan struct{}) (aborted bool) {
	return m.q.Wait(m.cfg.pollBudget(), done, m.TryLock)
}

// Unlock releases the mutex. It must be called by the goroutine that holds
// the lock.
func (m *Mutex) Unlock() {
	mode := m.eng.Mode()
	if m.state.Swap(unlocked) == unlocked {
		panic("reactive: Unlock of unlocked Mutex")
	}
	chaos.Point("mutex.unlock.release")
	// Release, then look for an announced waiter: a waiter pushes before
	// its post-announce TryLock, so either this load sees it or that
	// TryLock sees the release (DESIGN.md §5). The load stays inline:
	// Grant does not inline, and its call would tax every uncontended
	// unlock.
	waiters := m.q.Len() > 0
	if waiters {
		// Wake the oldest parked waiter (a no-op if every announced
		// waiter is still pre-park: its post-announce TryLock covers
		// this release) before notifying the engine: the observation
		// may call into an injected policy, and a panic there must not
		// strand the waiter this release owes a wakeup.
		m.q.Grant()
	}
	if mode == mPark {
		// An unlock that found nobody waiting is the scalable protocol
		// going unused.
		m.observe(mPark, signalOf(waiters))
	}
}

// switchMode commits a protocol change from want to next through the
// engine's consensus word — at most one caller wins each change. The
// commit touches only the mode word: Unlock grants whenever a waiter is
// queued, in either mode, so a mode change owes no parked waiter a
// wakeup.
func (m *Mutex) switchMode(want, next modal.Mode) {
	m.eng.TryCommit(spinParkTable, want, next)
}

// CheckInvariants verifies the mutex's quiescent-state invariants (see
// check.go for what "quiescent" means): the lock is free, no waiter is
// queued, the waiter queue is structurally sound, and the modal engine
// is in a known mode with its policy lock free. It returns the first
// violation found, or nil.
func (m *Mutex) CheckInvariants() error {
	if s := m.state.Load(); s != unlocked {
		return fmt.Errorf("reactive: Mutex state %d at quiescence, want unlocked", s)
	}
	if n := m.q.Len(); n != 0 {
		return fmt.Errorf("reactive: Mutex has %d queued waiters at quiescence", n)
	}
	if err := m.q.Check(); err != nil {
		return fmt.Errorf("reactive: Mutex waiter queue: %w", err)
	}
	if err := m.eng.Check(spinParkTable); err != nil {
		return fmt.Errorf("reactive: Mutex engine: %w", err)
	}
	return nil
}
