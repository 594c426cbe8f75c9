package reactive

import (
	"context"
	"sync/atomic"

	"repro/reactive/internal/affinity"
	"repro/reactive/internal/chaos"
	"repro/reactive/internal/waitq"
	"repro/reactive/modal"
)

// Engine-local mode indices for the fetch-and-op modal object (FetchOp,
// Counter). The public Stats mapping is ModeCAS + index.
const (
	fCAS       modal.Mode = 0
	fSharded   modal.Mode = 1
	fCombining modal.Mode = 2
)

var fopModes = []Mode{ModeCAS, ModeSharded, ModeCombining}

// fopTable is the native fetch-and-op's 3-mode chain, mirroring the
// simulator's reactive fetch-and-op (Appendix C): the cheap single-word
// protocol ↔ the sharded middle protocol ↔ batched combining, as the
// simulated algorithm moves TTS ↔ queue ↔ combining tree. No observation
// votes for the sharded → combining step (On: modal.None), so detection
// never takes it; construction (WithInitialMode) does.
var fopTable = modal.NewTable(
	[]modal.Step{{Residual: ResidualCheapHigh, On: modal.Busy}, {Residual: ResidualCheapHigh}},
	[]modal.Step{{Residual: ResidualScalableLow, On: modal.Calm}, {Residual: ResidualScalableLow, On: modal.Calm}})

// FetchOpTable returns the chain FetchOp and Counter run on:
// mode index 0 = ModeCAS, 1 = ModeSharded, 2 = ModeCombining (mode index
// i is the public mode ModeCAS + i). The table is immutable and shared;
// it is exported so harnesses and experiments can drive the exact state
// machine the primitives use rather than a hand-maintained copy.
func FetchOpTable() *modal.Table { return fopTable }

// combineBatchPerCell scales the combining protocol's batch window: a
// fold of the cells into the shared word is triggered once
// combineBatchPerCell × len(cells) operations have accumulated since the
// last fold (the native analogue of the combining tree's patience
// window).
const combineBatchPerCell = 2

// harvestBuf is how many harvested operands a user-op fold keeps on its
// stack frame before spilling to the heap: enough for one value per cell
// on hosts of up to 32 processors.
const harvestBuf = 32

// FetchOp is a reactive fetch-and-op accumulator — the native analogue
// of the thesis's reactive fetch-and-op, and the first N>2 modal object
// in this package. It folds operands into a single value under a
// user-supplied associative, commutative operation with an identity
// element (fetch&add with op = +, identity 0; running max with op = max,
// identity MinInt64; bitwise-or with identity 0; ...), moving between two
// protocols as contention changes:
//
//   - ModeCAS — one shared word updated by compare-and-swap. Cheapest
//     uncontended; collapses under update contention (contended Applies
//     promote to sharded).
//   - ModeSharded — operands land in per-processor cells; only Value
//     reconciles them into the shared word, in a serialized sweep
//     (sweeps that find at most one active cell demote to CAS).
//
// The chain has a third stage, ModeCombining (deposit in a
// cell; the depositor that completes a batch folds the cells into the
// shared word), mirroring the simulator's TTS lock ↔ queue lock ↔
// combining tree chain. Natively it is dominated by ModeSharded by
// construction — its Apply is the sharded Apply plus a read-modify-write
// on a shared deposit count plus a share of the folds, its Value the
// same sweep — so it is constructible (WithInitialMode), self-demoting
// (idle sweeps retire it) and never selected by detection.
//
// Every protocol tests before it writes: an update whose operand the
// target already absorbs (op(v, x) == v: a max fed a smaller value, an
// add of zero) returns after the load. The load is its linearization
// point — op is associative and commutative, so op(v, x) == v implies
// op(op(v, r), x) == op(v, r) for every later state — and it is no
// detection event. Counter is the add-only specialization of this type.
//
// FetchOp accumulates; it does not return per-operation fetch values
// (the sharded and combining protocols deliberately avoid serializing
// updates, so no global per-operation order exists to fetch from). Use
// Value to read the accumulated result.
//
// NewFetchOp builds one; the zero value is not useful (it has no
// operation) — except through Counter, whose zero value specializes the
// zero FetchOp to addition. A FetchOp must not be copied after first
// use.
type FetchOp struct {
	op func(a, b int64) int64 // nil: addition (Counter's specialization)
	id int64                  // op's identity element

	base atomic.Int64 // CAS-mode value, and the cells' reconciliation target

	// eng is the modal-object engine holding the mode word;
	// every protocol change goes through its consensus CAS against
	// fopTable.
	eng modal.Engine

	cells affinity.Cells // lazily built; a cell holds id (its fill) when empty

	// cfg sits between the words every Apply loads (base, the mode word,
	// the cells header) and the ones sweepers write (pending, sweepLock,
	// vq), so the two groups are a cache line apart
	// (TestHotWordsOffQueueLines).
	cfg config

	pending atomic.Int64 // combining mode: deposits since the last sweep

	// sweepLock serializes every cell sweep — reconciling Values and
	// combining-mode batch folds alike. One lock for both is load-bearing:
	// a fold holds harvested-but-unfolded cell values between its cell
	// Swaps and its CAS into base, and a concurrent sweep reading base in
	// that window would miss them. Readers wait for the lock two-phase:
	// poll through the budget, then park on vq (the shared waiter-queue
	// engine) until the releasing sweeper grants — the combining window's
	// cancellable wait (ValueCtx).
	sweepLock waitq.Lock
	vq        waitq.Queue

	// rescue banks operands a panicking user op stranded mid-fold:
	// foldCells harvests cell values destructively (Swap), so if op or
	// comb panics between a harvest and its fold into base, the
	// harvested values would otherwise vanish from the accumulator.
	// Guarded by sweepLock; drained at the start of the next fold, so
	// once the op heals no operand is lost.
	rescue []int64
}

// NewFetchOp builds a FetchOp over op and its identity element,
// configured by opts. op must be associative and commutative and may be
// called concurrently; identity must satisfy op(identity, x) == x.
// WithPollIters bounds how long a reconciling read polls for the sweep
// window before parking (updates never park).
func NewFetchOp(op func(a, b int64) int64, identity int64, opts ...Option) *FetchOp {
	if op == nil {
		panic("reactive: NewFetchOp requires an operation (use Counter for plain addition)")
	}
	f := &FetchOp{op: op, id: identity}
	f.base.Store(identity)
	construct(opts, &f.cfg, &f.eng, fopModes, f.switchFop)
	return f
}

// comb applies the operation (addition when op is nil).
func (f *FetchOp) comb(a, b int64) int64 {
	if f.op == nil {
		return a + b
	}
	return f.op(a, b)
}

// Stats returns a snapshot of the accumulator's adaptive state.
func (f *FetchOp) Stats() Stats {
	return Stats{
		Mode:     fopModes[f.eng.Mode()],
		Switches: f.eng.Switches(),
		Waiters:  f.vq.Len(),
	}
}

// Apply folds x into the accumulator, adapting its protocol to
// contention.
func (f *FetchOp) Apply(x int64) {
	switch f.eng.Mode() {
	case fCAS:
		// Cheap protocol fast path: test, then one CAS on the shared
		// word. An absorbed operand writes nothing and votes nothing.
		v := f.base.Load()
		n := f.comb(v, x)
		if n == v {
			return
		}
		if f.base.CompareAndSwap(v, n) {
			// CalmBottom inlines, and this path is ten nanoseconds long;
			// only an injected policy takes the observe call.
			if !f.eng.CalmBottom(fopTable) {
				f.observe(fCAS, modal.Calm)
			}
			return
		}
		f.applyContended(x)
	case fSharded:
		f.applyCell(x)
	default:
		f.applyCombining(x)
	}
}

// applyContended retries the CAS-mode update after a failed first
// attempt — a contended Apply, reported as Busy on completion:
// SpinFailLimit consecutive contended Applies (built-in detection) or the
// injected policy's say-so switch ModeCAS → ModeSharded.
func (f *FetchOp) applyContended(x int64) {
	var bo waitq.Backoff
	for {
		if f.eng.Mode() != fCAS {
			f.Apply(x) // mode changed under us: redispatch
			return
		}
		v := f.base.Load()
		n := f.comb(v, x)
		if n == v {
			return
		}
		if f.base.CompareAndSwap(v, n) {
			f.observe(fCAS, modal.Busy)
			return
		}
		bo.Pause()
	}
}

// observe reports one classified request served in mode from and carries
// out the protocol change detection fires.
func (f *FetchOp) observe(from modal.Mode, s modal.Signal) {
	if to, fire := f.eng.Observe(fopTable, from, s, f.cfg.limits()); fire {
		f.switchFop(from, to)
	}
}

// applyCell folds x into the current processor's cell, selected through
// the affinity substrate: pin → exact per-P cell index → atomic update →
// unpin. Truly-uncontended sharded updates are collision-free by
// construction — two updaters can hit one cell only by sharing a P (or
// under the stripe-hash fallback). The add specialization runs its
// single atomic instruction pinned; a user-supplied op must not run
// pinned (it is arbitrary code and pinning disables preemption), so the
// generic path unpins after selecting the cell and lets casFold's retry
// loop absorb the rare migration collision.
func (f *FetchOp) applyCell(x int64) {
	cells := f.cells.Build(f.id)
	c := &cells[affinity.Pin()&(len(cells)-1)]
	if f.op == nil {
		c.N.Add(x)
		affinity.Unpin()
		return
	}
	affinity.Unpin()
	casFold(&c.N, f.op, x)
}

// applyCombining is the combining protocol's update: deposit into a cell
// like the sharded protocol, then fold the cells into the shared word
// once a batch has accumulated — the depositor that crosses the batch
// threshold becomes the combiner, so folding cost is amortized over the
// batch and no dedicated combiner thread exists.
func (f *FetchOp) applyCombining(x int64) {
	f.applyCell(x)
	chaos.Point("fetchop.combine.deposit")
	if f.pending.Add(1) >= f.combineBatch() && f.sweepLock.TryLock() {
		n := func() int64 {
			// Released by defer so a panicking user op inside the fold
			// cannot leak the lock and wedge every future sweep.
			defer f.releaseSweep()
			n := f.pending.Swap(0)
			f.foldCells()
			return n
		}()
		// n == 0 means a racing Value stole the pending count between the
		// threshold check and the swap; the batch was full, so recording
		// an idle-sweep vote here would be spurious detection noise.
		if n > 0 {
			f.noteCombineBatch(n)
		}
	}
}

func (f *FetchOp) combineBatch() int64 {
	return combineBatchPerCell * int64(len(f.cells.Build(f.id)))
}

// foldCells sweeps every cell into the shared word. Callers must hold
// the sweepLock: each cell's Swap hands its accumulated value to exactly
// one sweeper, but between the Swaps and the fold into base the harvested
// values live only in this frame, so an unserialized concurrent sweep
// reading base would miss them.
func (f *FetchOp) foldCells() (active int) {
	cells := f.cells.Build(f.id)
	if f.op == nil {
		// Addition cannot panic, so nothing is ever banked and the
		// harvest needs no slice: sum the cells and add once.
		var sum int64
		for i := range cells {
			if v := cells[i].N.Swap(0); v != 0 {
				sum += v
				active++
			}
		}
		chaos.Point("fetchop.fold.harvest")
		if sum != 0 {
			f.base.Add(sum)
		}
		return active
	}
	// Harvest first — the rescue bank (operands stranded by a previous
	// fold whose user op panicked), then the cells. Folding is deferred
	// until everything harvested is in vals so a panicking op can bank
	// the lot. vals starts on this frame, so a sweep does not allocate.
	var buf [harvestBuf]int64
	vals := append(buf[:0], f.rescue...)
	f.rescue = nil
	for i := range cells {
		if v := cells[i].N.Swap(f.id); v != f.id {
			vals = append(vals, v)
			active++
		}
	}
	chaos.Point("fetchop.fold.harvest")
	if len(vals) == 0 {
		return active
	}
	// From here the harvested values exist only in this frame: if the
	// user op panics, bank the partial accumulator and every operand
	// not yet folded into base, then re-raise. The caller's deferred
	// releaseSweep frees the lock, and the next sweep drains the bank,
	// so a panicking op forfeits nothing but its own call.
	idx, moved := 0, f.id
	defer func() {
		if r := recover(); r != nil {
			if idx > 0 {
				f.rescue = append(f.rescue, moved)
			}
			f.rescue = append(f.rescue, vals[idx:]...)
			panic(r)
		}
	}()
	for idx < len(vals) {
		moved = f.op(moved, vals[idx])
		idx++
	}
	casFold(&f.base, f.op, moved)
	return active
}

// casFold folds x into target under op with a load/CAS retry loop — the
// generic-op analogue of atomic.Int64.Add.
func casFold(target *atomic.Int64, op func(a, b int64) int64, x int64) {
	for {
		v := target.Load()
		if n := op(v, x); n == v || target.CompareAndSwap(v, n) {
			return
		}
	}
}

// noteCombineBatch classifies one combining-mode sweep that found n
// deposits pending: a batch of at most one means the combining machinery
// is idling (EmptyLimit consecutive such sweeps retire it to the sharded
// protocol); a real batch breaks the streak. This is the native analogue
// of the simulator's combining-rate monitor.
func (f *FetchOp) noteCombineBatch(n int64) {
	f.observe(fCombining, signalOf(n > 1))
}

// releaseSweep releases the sweepLock and hands the sweep window to the
// oldest parked waiter, if any.
func (f *FetchOp) releaseSweep() {
	f.sweepLock.Unlock()
	chaos.Point("fetchop.sweep.release")
	f.vq.Grant()
}

// Value returns the accumulated result. Once the accumulator has ever
// left ModeCAS, Value reconciles permanently: under the sweep lock every
// cell's pending operand is folded into the shared word — the same
// sweep in ModeSharded and ModeCombining — and what the sweep observes
// is the contention signal: at most one active cell votes the sharded
// protocol down toward CAS, the pending-deposit count judges the
// combining protocol (see noteCombineBatch), and no sweep votes up.
// The permanent sweep is deliberate: an update that observed a
// cell-based mode may deposit into a cell arbitrarily late, so no
// post-burst Value may skip the cells without risking a lost operand.
// Update fast paths are unaffected; only Value pays. Under concurrent
// updates, Value returns a value that was correct at some instant during
// the call (the same guarantee sync/atomic-style sharded counters give).
// It is the uncancellable special case of ValueCtx.
func (f *FetchOp) Value() int64 {
	v, _ := f.value(nil)
	return v
}

// ValueCtx returns the accumulated result like Value, but gives up when
// ctx is cancelled or its deadline passes while waiting for the sweep
// window (a combining-mode batch fold, or another reconciling read, can
// hold it across a user-supplied operation of arbitrary cost), returning
// ctx.Err(). On an error the returned value is meaningless and no
// reconciliation was performed.
func (f *FetchOp) ValueCtx(ctx context.Context) (int64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	v, aborted := f.value(ctx.Done())
	return v, ctxErr(ctx, aborted)
}

// value is Value, reporting aborted, with a zero value, when done
// closes while it waits for the sweep window.
func (f *FetchOp) value(done <-chan struct{}) (v int64, aborted bool) {
	cells := f.cells.Built()
	if cells == nil {
		return f.base.Load(), false
	}
	// Sweeps are serialized by the sweepLock, shared with combining-mode
	// batch folds: a concurrent Value must not read the base while
	// another sweeper holds harvested-but-unfolded cell values (it would
	// miss them — including an Apply that completed before this Value
	// started), and a trailing Value sweeping just-emptied cells must not
	// mistake the empty sweep for low contention. The wait is the
	// shared two-phase one Mutex's park path runs (DESIGN.md §5): poll
	// through the budget, then park on vq until the releasing sweeper
	// grants.
	if f.vq.Wait(f.cfg.pollBudget(), done, f.sweepLock.TryLock) {
		return 0, true
	}
	defer f.releaseSweep()
	chaos.Point("fetchop.value.sweep")
	n := f.pending.Swap(0)
	active := f.foldCells()
	sum := f.base.Load()
	switch f.eng.Mode() {
	case fSharded:
		// A sweep that found at most one active cell saw at most one
		// writer since the last reconciliation: Calm — the sharded
		// protocol is sub-optimal for this load level.
		f.observe(fSharded, signalOf(active > 1))
	case fCombining:
		// A combiner's fold may have swapped pending to 0 just before this
		// sweep acquired the lock; under saturation that race would read
		// as an idle sweep and flap the mode down. The cells the sweep
		// itself emptied are the tie-breaker: deposits keep landing in
		// them under real load, so count whichever signal saw more.
		if int64(active) > n {
			n = int64(active)
		}
		f.noteCombineBatch(n)
	}
	return sum, false
}

// switchFop performs a protocol change from want to next through the
// engine's consensus word, at most once per detection round. The cells
// are built before a cell-based mode is published so updates never
// observe a nil array; no state copying is needed in either direction —
// Value always folds base plus cells, so updates racing with the change
// land in whichever protocol they observed and are never lost (the
// "common location" optimization of Section 3.3.2).
func (f *FetchOp) switchFop(want, next modal.Mode) {
	if next != fCAS {
		f.cells.Build(f.id)
	}
	if f.eng.TryCommit(fopTable, want, next) && next == fCombining {
		// A fresh combining epoch starts a fresh batch window.
		f.pending.Store(0)
	}
}
