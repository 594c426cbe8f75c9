// Package chaos is the deterministic fault-injection substrate behind
// the torture harness (internal/torture, cmd/torture). The primitives in
// package reactive are instrumented with named fault points —
// chaos.Point(id) and chaos.PinnedPoint(id) calls placed at exactly the
// proof-critical interleaving windows their correctness arguments reason
// about (the instant between a waitq announce and its state re-check,
// between a slot deposit and its gate validation, between a cell harvest
// and its fold into the base word, ...). By default the hooks are empty
// functions the compiler inlines away: a build without the
// reactive_chaos tag carries zero overhead, verified by the package's
// zero-allocation pins.
//
// Under the reactive_chaos build tag the hooks consult an active
// Schedule: a pure function of a 64-bit seed mapping every cataloged
// point to an action (yield the processor, spin a bounded number of
// iterations, or sleep a bounded duration) fired on a deterministic
// subsequence of that point's hits. Two processes given the same seed
// build byte-identical schedules, so a torture failure is reproducible
// from its seed alone — the schedule (not the OS-level interleaving,
// which no userspace harness controls) is the deterministic object, and
// replaying it re-opens the same racy windows with the same bias.
//
// The catalog of instrumented points is a package-level table kept in
// lockstep with the source by a sync test that scans everything under
// reactive/ for hook calls, so a schedule always covers every window and the
// DESIGN.md point inventory cannot rot.
package chaos

import (
	"encoding/json"
	"fmt"
)

// catalog is the canonical ordered list of instrumented fault points,
// and the only spelling of each id outside its hook call. A Schedule
// derives one rule per entry, in this order, so schedule bytes are a
// pure function of the seed. Order is alphabetical for stability
// (TestCatalogSortedAndUnique checks it); the sync test enforces that
// the set matches the hook calls compiled into package reactive. It is
// a static array, not a slice built at init: an init-time allocation
// lands in a size class the primitives share and shifts where every
// later Counter or FetchOp sits on its cache lines.
var catalog = [...]string{
	// epoch kernel (RWMutex's and Map's epoch modes alike): a reader's
	// decrement-to-claim-check window on exit, and its
	// deposit-to-gate-validation window — the two reader-side windows of
	// the grace-period proof (DESIGN.md §8). RWMutex's sharded
	// registration exits through the kernel too, so the first is its exit
	// window as well.
	"epoch.offline", "epoch.stamp",

	// FetchOp: the combining deposit-to-threshold window, the
	// harvested-but-unfolded window the single sweepLock exists for, the
	// release-to-grant handoff, and the reconciling sweep itself.
	"fetchop.combine.deposit", "fetchop.fold.harvest", "fetchop.sweep.release", "fetchop.value.sweep",

	// Map: the two proof-critical windows of the epoch mode — a cell
	// writer's load-to-CAS window, where another writer's CAS can land
	// first; and the grace period an insert waits out under its claim
	// before it changes the table in place (the point fires before every
	// cell sweep: in the claim-to-first-sweep window, then between
	// re-sweeps).
	"map.cell.store", "map.grace.sweep",

	// Mutex: the unlock-to-grant window the no-lost-wakeup argument
	// closes.
	"mutex.unlock.release",

	// RWMutex: the deposit-to-claim-validation window of the sharded
	// registration (the kernel's proof with readerCount as the validated
	// word, DESIGN.md §4), the release tail every path that retracts a
	// claim runs (Unlock, and the undo of a cancelled drain or a failed
	// TryLock), and the writer's claim-to-sweep window.
	"rwmutex.sharded.deposit", "rwmutex.unlock.release", "rwmutex.writer.claimed",

	// waitq: the announce/grant/abandon triangle of the
	// handoff-or-abandon proof (DESIGN.md §5), and the announce-to-retest
	// window every two-phase wait (Mutex, RWMutex readers, FetchOp's
	// sweep window, the epoch kernel's grace period) passes through.
	"waitq.abandon.enter", "waitq.grant.enter", "waitq.push.enter", "waitq.wait.announced",
}

// Catalog returns the instrumented fault-point ids in canonical
// (sorted) order.
func Catalog() []string { return append([]string(nil), catalog[:]...) }

// Fault-point ops. A rule's Op says what firing the point does; every
// op is bounded so no schedule can stall a run indefinitely.
const (
	// OpYield calls runtime.Gosched Arg times (1..maxYields): the
	// scheduler is invited to run somebody else inside the window.
	OpYield = "yield"
	// OpSpin busy-spins Arg iterations (1..maxSpin): the window is
	// widened without giving up the processor — the only op safe while
	// the caller holds a procPin (PinnedPoint demotes the others to it).
	OpSpin = "spin"
	// OpSleep sleeps Arg microseconds (1..maxSleepUs): the window is
	// held open across whole scheduler quanta, the bias that surfaces
	// lost-wakeup and stale-claim interleavings.
	OpSleep = "sleep"
)

// Bounds on rule parameters; NewSchedule stays inside them and Enable
// clamps loaded (replayed) schedules to them, so a hand-edited artifact
// cannot turn a fault point into a hang.
const (
	maxYields  = 8
	maxSpin    = 4096
	maxSleepUs = 200
	maxEvery   = 16
)

// A Rule maps one fault point to its action: fire Op(Arg) on every
// hit h (a per-point counter) with h % Every == Phase.
type Rule struct {
	Point string `json:"point"`
	Op    string `json:"op"`
	// Every and Phase select the deterministic subsequence of hits that
	// fire: hit indices congruent to Phase mod Every. Every=1 fires on
	// every hit.
	Every uint32 `json:"every"`
	Phase uint32 `json:"phase"`
	// Arg parameterizes the op: yields, spin iterations, or microseconds.
	Arg uint32 `json:"arg"`
}

// A Schedule is one deterministic fault assignment: a rule per cataloged
// point, derived from Seed by NewSchedule. Its JSON encoding is the
// repro-artifact payload cmd/torture emits and replays; two invocations
// of NewSchedule with one seed produce byte-identical encodings.
type Schedule struct {
	Seed  uint64 `json:"seed"`
	Rules []Rule `json:"rules"`
}

// splitmix64 is the seed-expansion PRNG (Vigna's SplitMix64): one
// self-contained step function, so schedule derivation depends on
// nothing but this file.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewSchedule derives the deterministic fault schedule for seed over
// points (normally Catalog(); torture cases pass it verbatim so the
// whole catalog is always covered). The derivation consumes the PRNG
// stream in point order, so the schedule is a pure function of
// (seed, points) — byte-identical across invocations and processes.
func NewSchedule(seed uint64, points []string) *Schedule {
	s := &Schedule{Seed: seed, Rules: make([]Rule, 0, len(points))}
	x := seed
	for _, p := range points {
		r := Rule{Point: p}
		switch splitmix64(&x) % 10 {
		case 0, 1, 2, 3: // 40%
			r.Op = OpYield
			r.Arg = 1 + uint32(splitmix64(&x)%maxYields)
		case 4, 5, 6: // 30%
			r.Op = OpSpin
			r.Arg = 64 + uint32(splitmix64(&x)%(maxSpin-64))
		default: // 30%
			r.Op = OpSleep
			r.Arg = 1 + uint32(splitmix64(&x)%maxSleepUs)
		}
		// Power-of-two firing periods up to maxEvery, with a random
		// phase so two points with the same period fire on different
		// hits.
		r.Every = 1 << (splitmix64(&x) % 5) // 1,2,4,8,16
		r.Phase = uint32(splitmix64(&x) % uint64(r.Every))
		s.Rules = append(s.Rules, r)
	}
	return s
}

// Encode renders the schedule as indented JSON — the canonical byte
// form the determinism guarantee is stated over.
func (s *Schedule) Encode() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// DecodeSchedule parses a schedule previously produced by Encode (or
// hand-edited: Enable clamps parameters back into bounds).
func DecodeSchedule(b []byte) (*Schedule, error) {
	var s Schedule
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("chaos: decoding schedule: %w", err)
	}
	// Clamp here as well as in Enable, so a decoded artifact is bounded
	// even when it is only carried around (re-encoded, diffed, logged)
	// rather than armed.
	for i := range s.Rules {
		s.Rules[i] = s.Rules[i].clamp()
	}
	return &s, nil
}

// clamp bounds one rule's parameters (replayed artifacts may have been
// hand-edited; injection must stay bounded).
func (r Rule) clamp() Rule {
	switch r.Op {
	case OpYield:
		if r.Arg < 1 {
			r.Arg = 1
		}
		if r.Arg > maxYields {
			r.Arg = maxYields
		}
	case OpSpin:
		if r.Arg < 1 {
			r.Arg = 1
		}
		if r.Arg > maxSpin {
			r.Arg = maxSpin
		}
	case OpSleep:
		if r.Arg < 1 {
			r.Arg = 1
		}
		if r.Arg > maxSleepUs {
			r.Arg = maxSleepUs
		}
	}
	if r.Every < 1 {
		r.Every = 1
	}
	if r.Every > maxEvery {
		r.Every = maxEvery
	}
	r.Phase %= r.Every
	return r
}

// PointStat is one fault point's activity under the currently (or most
// recently) enabled schedule.
type PointStat struct {
	Point string `json:"point"`
	Hits  uint64 `json:"hits"`
	Fired uint64 `json:"fired"`
}
