package reactive

import (
	"context"
	"sync/atomic"

	"repro/reactive/internal/affinity"
	"repro/reactive/internal/chaos"
	"repro/reactive/internal/epoch"
	"repro/reactive/internal/waitq"
	"repro/reactive/modal"
)

// rwBias is the writer's claim on the reader count: Lock subtracts it so
// the count is negative for exactly as long as a writer is draining
// readers or holding the lock. It bounds the number of simultaneous
// readers.
const rwBias = 1 << 29

// Engine-local mode indices for the reader-registration modal object,
// and the public modes they surface as (Stats().Readers), in chain
// order: the first two follow FetchOp's ModeCAS + index convention (the
// centralized word is the cheap single-word protocol, the per-P cells
// validated against it the sharded one), the third is the registration
// chain's own.
const (
	rCentral modal.Mode = 0
	rSharded modal.Mode = 1
	rEpoch   modal.Mode = 2
)

var readerModes = []Mode{ModeCAS, ModeSharded, ModeEpoch}

// readerShardTable is the 3-mode chain of RWMutex's reader registration
// protocol: centralized word ↔ BRAVO-style per-P deposits ↔ per-P epoch
// stamps, mirroring FetchOp's N=3 chain.
var readerShardTable = modal.NewTable(
	[]modal.Step{{Residual: ResidualCheapHigh, On: modal.Busy}, {Residual: ResidualCheapHigh, On: modal.Busy}},
	[]modal.Step{{Residual: ResidualScalableLow, On: modal.Calm}, {Residual: ResidualScalableLow, On: modal.Calm}})

// RWReaderTable returns the chain RWMutex's reader registration
// protocol runs on: mode index 0 = ModeCAS (centralized word), 1 =
// ModeSharded (per-P cells validated against that word), 2 = ModeEpoch
// (the same cells validated against the epoch gate) — the first two
// follow FetchOpTable's ModeCAS + i convention, index 2 is the public
// ModeEpoch. The table is immutable and shared; it is exported so
// harnesses and experiments can drive the exact state machine the
// primitive uses rather than a hand-maintained copy.
func RWReaderTable() *modal.Table { return readerShardTable }

// RWMutex is a reactive reader/writer lock. Writers are serialized by an
// embedded reactive Mutex, whose spin↔park engine Stats().Mode reports.
// A reader that finds a writer's claim waits the way every waiter in
// this package does: the two-phase wait, polling through the budget
// (WithPollIters) and then parking on the queue the releasing writer
// broadcasts into. On top of that this type runs one modal object of its
// own, over how readers *register* when no writer is about
// (Stats().Readers):
//
//   - ModeCAS — readers compare-and-swap one centralized reader count.
//     Cheapest for occasional reads, but every RLock/RUnlock from every
//     core bounces that one cache line.
//   - ModeSharded — BRAVO-style sharded registration: each reader
//     deposits a +1 in its processor's padded cell (selected through the
//     per-P affinity substrate), validates it against the centralized
//     word's writer claim, and a writer drains by sweeping the cells.
//     Read-dominated workloads scale with cores instead of serializing
//     on coherence traffic; writers pay a cell sweep.
//   - ModeEpoch — userspace-RCU-style epoch registration, the chain's
//     high-contention endpoint: RLock makes the same per-P deposit but
//     validates it against one shared gate word no reader ever stores
//     to, so an epoch-mode read performs zero shared-cacheline writes
//     and loads no line a centralized reader could have dirtied. Writers
//     claim the gate and sweep the cells (a grace period) until every
//     registered reader has gone offline.
//
// Detection only classifies (modal.Busy or modal.Calm; the table's On
// column says which transition each votes for, SpinFailLimit consecutive
// Busy scaling up, EmptyLimit consecutive Calm scaling down). A
// slow-path centralized registration is Busy when its CAS lost to
// another *reader*; a writer's drain in the cell-based modes is Busy
// when it found active readers — from the sharded mode that is the
// read-saturated regime where even the cell deposits bounce against the
// drain — and Calm when the lock was already quiet (in epoch mode, a
// quiet grace period). Registration-protocol changes are committed only
// under full writer exclusion, so no reader's RLock/RUnlock pair ever
// spans one.
//
// Readers register by compare-and-swap from a non-negative count (or by
// a cell deposit re-validated against the writer claim), never by a
// blind increment, so a reader can become active only while no writer
// claim is in place, and a writer enters its critical section only
// after the centralized count and the cell sum show zero active readers —
// mutual exclusion holds by construction. The cost is that writers are
// strictly preferred: readers arriving during a writer's drain or hold
// wait for its release, and a stream of back-to-back writers can keep
// readers waiting longer than sync.RWMutex would.
//
// LockCtx and RLockCtx are the cancellation-aware acquisitions: both
// return ctx.Err() promptly when ctx ends mid-wait, in either wait
// phase. A writer cancelled while draining readers retracts its claim
// and wakes any readers it had parked, so a cancelled LockCtx leaves the
// lock exactly as it found it.
//
// The zero value is an unlocked RWMutex with a spin-mode writer mutex,
// centralized registration and the package-default tunables; NewRWMutex
// builds one with explicit Options. An RWMutex must not be copied after
// first use.
// As with sync.RWMutex, recursive read locking is prohibited: if a
// goroutine holds the read lock while anything performs a write
// acquisition — an application writer, or a reader-driven registration
// protocol change, which takes the write lock itself — a nested RLock
// deadlocks, so even a writer-free program must not nest read locks.
// Calling RUnlock without a matching RLock panics, as with
// sync.RWMutex. In centralized mode the panic is immediate (the
// reader count goes negative); in the sharded and epoch modes the
// cells admit no cheap per-reader check, so the violation surfaces at
// the next writer's drain sweep — the one point where a negative delta
// sum is provable misuse rather than a transient — and the panic fires
// on the writer's goroutine.
type RWMutex struct {
	// readerCount is the centralized registration word: the number of
	// centrally-registered active readers, minus rwBias while a writer
	// has claimed the lock. The claim bit doubles as the gate sharded
	// readers validate against, so the word stays authoritative for
	// writer exclusion in both of those registration modes.
	readerCount atomic.Int32

	// reng selects the reader registration protocol (centralized ↔
	// sharded ↔ epoch); every change goes through its consensus CAS.
	reng modal.Engine

	// ek is the grace-period kernel (reactive/internal/epoch): the one
	// lazily built per-P cell array both cell-based registration modes
	// deposit in, the gate word (which only writers store to) that epoch
	// readers validate against — sharded readers validate against
	// readerCount instead, the two modes' only difference — and the
	// grace counters surfaced in ReaderStats. Cell values are deltas, not
	// occupancies: a reader may deposit its +1 in one cell and its -1 in
	// another after migrating, so only the sum is meaningful — zero iff
	// no cell-registered reader is active (see cellsDrained for why a
	// sweep cannot misread that). The kernel also owns the drain's wait
	// and its wake (drainReaders); this type supplies the writer lock
	// and the mode commits.
	ek epoch.Kernel

	// rq holds readers parked behind a writer's claim (phase two of their
	// two-phase wait, on the shared waiter-queue engine,
	// reactive/internal/waitq); a releasing writer broadcasts into it.
	rq waitq.Queue

	// w serializes writers; its spin↔park engine is Stats().Mode. It
	// comes last so its queue lock sits a cache line past the reader
	// words (TestHotWordsOffQueueLines).
	w Mutex
}

// NewRWMutex builds an RWMutex configured by opts. NewRWMutex() with no
// options is equivalent to a zero-value RWMutex. The threshold and
// polling options configure both the embedded writer mutex and the
// registration protocol's streaks, which read them from the writer
// mutex. One option addresses each engine: a policy installed with
// WithPolicy, and WithInitialMode (ModeSpin or ModePark), govern the
// writer mutex's spin↔park engine; WithInitialReaderMode starts the
// registration engine, which always uses the built-in streak detection
// (with the same thresholds) because policy instances must not be
// shared between primitives — or between the engines of one primitive.
func NewRWMutex(opts ...Option) *RWMutex {
	rw := &RWMutex{}
	c := construct(opts, &rw.w.cfg, &rw.w.eng, spinParkModes, rw.w.switchMode)
	if c.initRModeSet {
		// Registration commits at construction time are sound without
		// writer exclusion only because the lock is not yet shared: no
		// reader exists to span them.
		walkTo(&rw.reng, readerModes, c.initRMode, rw.commitReaderMode)
	}
	return rw
}

// commitReaderMode commits one step of the registration chain. The
// caller has full writer exclusion (it is a writer inside its critical
// section) or an unshared lock, which is what guarantees no reader's
// RLock/RUnlock pair spans the change. Every edge commits through here
// so the order cannot vary: kernel Select — per-P cells built, then the
// epoch gate's mode bit — then the engine commit that publishes the
// mode, so a reader that observed a cell-based mode finds its cell and,
// in epoch mode, a gate that validates. Select leaves a writer's claim
// on the gate, and the chain has no central↔epoch step: a writer enters
// the epoch mode only from the sharded one, so the cells existed when
// it claimed and its claim refuses every epoch reader.
func (rw *RWMutex) commitReaderMode(want, next modal.Mode) {
	rw.ek.Select(next == rEpoch)
	rw.reng.TryCommit(readerShardTable, want, next)
}

// Stats returns a snapshot of the lock's adaptive state: the writer
// mutex's protocol (ModeSpin or ModePark) in Mode/Switches, everything
// blocked on the lock in Waiters (parked readers, a draining writer, and
// writers queued on the writer mutex), and the reader registration
// protocol in Readers.
func (rw *RWMutex) Stats() Stats {
	return Stats{
		Mode:     Mode(rw.w.eng.Mode()),
		Switches: rw.w.eng.Switches(),
		Waiters:  rw.rq.Len() + rw.ek.Waiters() + rw.w.q.Len(),
		Readers: &ReaderStats{
			Mode:        readerModes[rw.reng.Mode()],
			Switches:    rw.reng.Switches(),
			Shards:      rw.ek.Cells(),
			Graces:      rw.ek.Graces(),
			QuietGraces: rw.ek.QuietGraces(),
		},
	}
}

// RLock acquires the lock for reading. It is the uncancellable special
// case of RLockCtx.
//
// The fast path records no detection event: only a CAS lost to another
// reader signals that the centralized word is the bottleneck, and that
// happens in the slow path (rlockSlow).
func (rw *RWMutex) RLock() {
	if rw.register() == regOK {
		return
	}
	rw.rlockSlow(nil)
}

// RLockCtx acquires the lock for reading like RLock, but gives up when
// ctx is cancelled or its deadline passes, returning ctx.Err() promptly
// in both wait phases. On a nil error the caller holds a read lock and
// must RUnlock it.
func (rw *RWMutex) RLockCtx(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if rw.register() == regOK {
		return nil
	}
	return ctxErr(ctx, rw.rlockSlow(ctx.Done()))
}

// regResult says how one registration attempt ended: the reason a
// failure carries is what lets RLock's slow path, TryRLock and the
// detection share the one attempt routine.
type regResult uint8

const (
	regOK      regResult = iota
	regClaimed           // a writer's claim is in place: wait for its release (a Try fails)
	regLost              // the centralized CAS lost to another reader: retry — and the sharded protocol's signal
	regMoved             // the registration protocol changed under the attempt: redispatch
)

// register attempts one read registration under the current
// registration protocol, never waiting.
//
// The cell-based protocols deposit +1 in this P's cell and then validate
// — the sharded one that the centralized word carries no writer claim
// and the mode is still sharded, the epoch one (epoch.Kernel.Enter)
// against the single gate word readers never store to, so an epoch read
// writes nothing outside its own cell. Either validation failing undoes
// the deposit, so writers cannot starve. The order is what makes the
// writer's sweep exclusion-safe: the deposit happens before the
// validating load, and the writer places its claims before sweeping, so
// a reader that observed no claim has its +1 visible to every sweep of
// that drain (DESIGN.md §8). The sharded deposit and validation run
// pinned, as Enter's do (three atomic ops, no user code): preemption
// cannot widen the window in which a sweeping writer sees a deposit
// whose validation is still pending.
//
// Once registered, under any protocol, the mode cannot change until
// this reader RUnlocks: every registration-protocol commit happens under
// a full writer drain that the registration blocks. RUnlock therefore
// always observes the mode the registration used.
func (rw *RWMutex) register() regResult {
	switch rw.reng.Mode() {
	case rSharded:
		c := rw.ek.Cell(affinity.Pin())
		c.N.Add(1)
		chaos.PinnedPoint("rwmutex.sharded.deposit")
		ok := rw.readerCount.Load() >= 0 && rw.reng.Mode() == rSharded
		affinity.Unpin()
		if ok {
			return regOK
		}
		rw.ek.Exit(c)
	case rEpoch:
		c, claimed := rw.ek.Enter()
		if c != nil {
			return regOK
		}
		if claimed {
			return regClaimed
		}
	default:
		v := rw.readerCount.Load()
		if v >= 0 && rw.readerCount.CompareAndSwap(v, v+1) {
			// Re-validate the mode: the read that chose the centralized
			// protocol may predate a commit to sharded whose writer has
			// since released. Our +1 is registered, so the mode is frozen
			// from here until RUnlock (a commit's drain cannot pass it);
			// if the re-check still says centralized, RUnlock will too.
			if rw.reng.Mode() == rCentral {
				return regOK
			}
			rw.runlockCentral()
			return regMoved
		}
		if v >= 0 && rw.readerCount.Load() >= 0 {
			return regLost
		}
		return regClaimed
	}
	// A refused cell registration: a writer's claim, or the mode moved.
	if rw.readerCount.Load() < 0 {
		return regClaimed
	}
	return regMoved
}

// runlockCentral releases one centralized registration (or undoes a
// stale one), waking a draining writer when the last reader leaves.
func (rw *RWMutex) runlockCentral() {
	r := rw.readerCount.Add(-1)
	if r >= 0 {
		return
	}
	if r == -1 || r < -rwBias {
		panic("reactive: RUnlock of unlocked RWMutex")
	}
	// A writer is draining; if this was the last active reader, wake it.
	// (A cell-registered reader's Exit wakes it on its own.)
	if r == -rwBias {
		rw.ek.Wake()
	}
}

// TryRLock attempts to acquire the lock for reading without waiting.
func (rw *RWMutex) TryRLock() bool {
	for {
		switch rw.register() {
		case regOK:
			return true
		case regClaimed:
			return false
		}
		// Lost to another reader, or the registration protocol changed
		// under us: neither is a writer, so go again.
	}
}

// rlockSlow waits for the writer claims to clear and re-registers under
// whichever registration protocol is then selected. The wait is the one
// every waiter in this package makes, rq.Wait over noClaim: poll through
// the budget, yielding between attempts, then park until a releasing
// writer broadcasts. Reader-reader CAS races retry at once — but each
// loss to another reader is exactly the coherence traffic the sharded
// protocol removes, so it votes toward sharded registration. A closed
// done aborts, checked before every attempt so the registration races
// observe it too; rlockSlow reports whether it did.
func (rw *RWMutex) rlockSlow(done <-chan struct{}) (aborted bool) {
	casLosses := 0
	for {
		if done != nil {
			select {
			case <-done:
				return true
			default:
			}
		}
		switch rw.register() {
		case regOK:
			if casLosses == 0 && rw.reng.Mode() == rCentral {
				// A loss-free registration breaks the reader-contention
				// streak, so only *consecutive* losses — not losses
				// accumulated over the lock's lifetime — reach the switch
				// threshold.
				rw.noteRegistration(false)
			}
			return false
		case regLost:
			// Lost the centralized word to another reader: the cheap
			// registration protocol is serializing readers on one cache
			// line — the regime sharded cells are built for.
			casLosses++
			rw.noteRegistration(true)
		case regClaimed:
			if rw.rq.Wait(rw.w.cfg.pollBudget(), done, rw.noClaim) {
				return true
			}
		}
		// regMoved — the registration protocol changed under the attempt —
		// redispatches at once, like a loss.
	}
}

// noClaim is the reader wait's try: neither of the writer's claims is in
// place. Writers clear the centralized word's and then the epoch gate's
// before broadcasting into rq (Unlock, and the undo of a failed or
// cancelled acquisition), so a reader announced on rq either sees both
// cleared or is woken after they are — and a reader that saw only the
// first cleared never spins on a registration the lagging gate refuses.
func (rw *RWMutex) noClaim() bool {
	return rw.readerCount.Load() >= 0 && !rw.ek.Claimed()
}

// noteRegistration classifies one slow-path registration attempt on the
// centralized word: lost to another reader, or completed loss-free. A
// fired promotion takes the write lock itself (switchReaderMode).
func (rw *RWMutex) noteRegistration(lost bool) {
	if to, fire := rw.reng.Observe(readerShardTable, rCentral, signalOf(lost), rw.w.cfg.limits()); fire {
		rw.switchReaderMode(rCentral, to)
	}
}

// RUnlock releases one read hold. The registration mode it observes is
// the one RLock registered under: a registered reader blocks every
// registration-protocol commit until it releases (see register).
func (rw *RWMutex) RUnlock() {
	if rw.reng.Mode() == rCentral {
		rw.runlockCentral()
		return
	}
	c := rw.ek.Cell(affinity.Pin())
	affinity.Unpin()
	rw.ek.Exit(c)
}

// claim places the writer's claim — on the centralized word, which new
// centralized and sharded readers validate against, and on the epoch
// gate, which epoch readers do — and reports whether active readers may
// exist and must be drained. The caller holds the writer mutex. Once the
// cells exist the sweep is permanent, whatever the current registration
// mode: a reader that observed the sharded or epoch mode may deposit
// into its cell arbitrarily late, so no later drain may skip the cells
// without risking lost exclusion (the same reasoning as FetchOp.Value's
// permanent reconciliation).
func (rw *RWMutex) claim() (drain bool) {
	busy := rw.readerCount.Add(-rwBias) != -rwBias
	rw.ek.Claim()
	chaos.Point("rwmutex.writer.claimed")
	return busy || rw.ek.Cells() != 0
}

// Lock acquires the lock for writing. It is the uncancellable special
// case of LockCtx.
func (rw *RWMutex) Lock() {
	rw.w.Lock()
	if rw.claim() {
		rw.drainReaders(nil)
	}
}

// LockCtx acquires the lock for writing like Lock, but gives up when ctx
// is cancelled or its deadline passes, returning ctx.Err(). Cancellation
// can land in either wait: while queued on the writer mutex (handled by
// Mutex.LockCtx), or while draining readers — in which case the claim is
// retracted and any readers parked behind it are woken, leaving the lock
// exactly as it was found. On a nil error the caller holds the write lock
// and must Unlock it.
func (rw *RWMutex) LockCtx(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := rw.w.LockCtx(ctx); err != nil {
		return err
	}
	if rw.claim() && rw.drainReaders(ctx.Done()) {
		// Cancelled mid-drain: retract both claims, waking the readers
		// the transient claim may have parked (the same undo TryLock
		// performs).
		rw.readerCount.Add(rwBias)
		rw.release()
		return ctx.Err()
	}
	return nil
}

// TryLock attempts to acquire the lock for writing without waiting.
func (rw *RWMutex) TryLock() bool {
	if !rw.w.TryLock() {
		return false
	}
	if !rw.readerCount.CompareAndSwap(0, -rwBias) {
		rw.w.Unlock()
		return false
	}
	rw.ek.Claim()
	if !cellsDrained(rw.ek.Sum()) {
		// Active sharded or epoch readers (or a transient deposit): with
		// the claims already in place a single sweep reading zero proves
		// quiescence, so a nonzero read means waiting — undo and fail.
		// The undo wakes the readers the transient claim may have
		// parked, which otherwise only a later writer would free.
		rw.readerCount.Add(rwBias)
		rw.release()
		return false
	}
	return true
}

// cellsDrained judges one sweep of the reader cells, taken with the
// writer's claims in place. The sum cannot misread zero while a
// cell-registered reader is active: registered deposits all precede the
// claim their reader validated against (a reader validates after
// depositing), so every sweep read includes them, and each release
// decrement is paired with a deposit the sweep also saw. Transient
// deposit/undo pairs can only inflate the sum — a conservative re-sweep,
// never a lost reader (epoch.Kernel states the argument once, DESIGN.md
// §8; the sharded mode swaps the gate for readerCount and nothing
// else). A negative sum therefore proves an RUnlock that never
// deposited: caller misuse, reported with the message the centralized
// mode panics with.
func cellsDrained(sum int64) bool {
	if sum < 0 {
		panic("reactive: RUnlock of unlocked RWMutex")
	}
	return sum == 0
}

// drained reports whether every active reader — centrally registered or
// cell-registered — has released. As the drain's predicate it runs
// inside Kernel.Wait's yield-per-attempt poll, so the repeated cell
// sweeps stay scheduler-cooperative on small-GOMAXPROCS hosts (a
// non-yielding sweep could freeze the very readers it waits on).
func (rw *RWMutex) drained() bool {
	return rw.readerCount.Load() == -rwBias && cellsDrained(rw.ek.Sum())
}

// drainReaders waits for the active readers to release — the kernel's
// Wait over drained, which the last reader out of any registration
// protocol wakes (a cell reader's Exit, or runlockCentral's Wake). In
// epoch mode a completed drain is one grace period, which the kernel
// counts. It is also the cell-based registration modes' detection site:
// a drain that found the lock already quiet is Calm — the cell machinery
// went unused across a whole writer round — and one that found active
// readers is Busy, the read-saturation signal. The centralized mode's
// detector listens to reader CAS losses only (noteRegistration), so a
// drain there observes nothing. Commits happen right here, under the
// writer's own exclusion (claim in place, drain complete), so no reader
// can span them. A closed done aborts the wait; the caller retracts the
// claim.
func (rw *RWMutex) drainReaders(done <-chan struct{}) (aborted bool) {
	idle, aborted := rw.ek.Wait(rw.w.cfg.pollBudget(), done, rw.drained)
	if from := rw.reng.Mode(); !aborted && from != rCentral {
		if to, fire := rw.reng.Observe(readerShardTable, from, signalOf(!idle), rw.w.cfg.limits()); fire {
			rw.commitReaderMode(from, to)
		}
	}
	return aborted
}

// Unlock releases the write hold, waking parked readers so they can
// re-register.
func (rw *RWMutex) Unlock() {
	if rw.readerCount.Add(rwBias) != 0 {
		panic("reactive: Unlock of unlocked RWMutex")
	}
	rw.release()
}

// release is the writer's release tail, shared by Unlock and the undo of
// a cancelled or failed acquisition; the caller has already retracted
// its claim on readerCount. It retracts the gate claim, wakes the parked
// readers and releases the writer mutex.
func (rw *RWMutex) release() {
	rw.ek.Release()
	chaos.Point("rwmutex.unlock.release")
	// Broadcast after both claims clear: a reader that announces later
	// re-checks them after queuing and leaves on its own.
	rw.rq.GrantAll()
	// The writer mutex goes last: its release may call into an injected
	// policy, and a panic there must unwind with the claims already gone.
	rw.w.Unlock()
}

// switchReaderMode performs a registration-protocol change from want to
// next by taking the write lock: commits are sound only under full
// writer exclusion (claim in place, all registration paths drained).
// Callers already holding the write lock (the drain's detection) commit
// directly instead.
func (rw *RWMutex) switchReaderMode(want, next modal.Mode) {
	rw.Lock()
	// Holding the write lock freezes the mode (commits happen only under
	// writer exclusion), so a re-check here decides the whole critical
	// section.
	if rw.reng.Mode() == want {
		rw.commitReaderMode(want, next)
	}
	rw.Unlock()
}
