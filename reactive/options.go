package reactive

import (
	"fmt"
	"slices"

	"repro/reactive/modal"
	"repro/reactive/policy"
)

// config carries the tunables shared by every adaptive primitive in this
// package. The zero value means "use the package defaults", so
// zero-value primitives and primitives built by the constructors with no
// options behave identically. A primitive keeps only the three tunables
// (construct); the policy and the initial modes are read once, at
// construction.
type config struct {
	spinFailLimit int32
	emptyLimit    int32
	pollIters     int32
	pol           policy.Policy
	initMode      Mode
	initModeSet   bool
	initRMode     Mode
	initRModeSet  bool
}

// An Option configures an adaptive primitive built by New, NewCounter,
// NewRWMutex, NewFetchOp, or NewMap. Options not meaningful for a
// primitive are accepted and ignored (e.g. WithInitialReaderMode on a
// Counter), so one option slice can configure a family of primitives
// uniformly.
type Option func(*config)

// WithSpinFailLimit sets how many consecutive scale-up observations —
// contended acquisitions for Mutex and RWMutex's writer mutex, reader
// CAS losses and busy drains for RWMutex's registration protocol,
// contended CAS updates for Counter and FetchOp — the built-in detection tolerates before
// switching to the next, more scalable protocol. n must be positive. Default: DefaultSpinFailLimit.
// Ignored when WithPolicy installs an explicit switching policy.
func WithSpinFailLimit(n int) Option {
	if n <= 0 {
		panic("reactive: WithSpinFailLimit requires n > 0")
	}
	return func(c *config) { c.spinFailLimit = int32(n) }
}

// WithEmptyLimit sets how many consecutive scale-down observations —
// uncontended releases for Mutex and RWMutex's writer mutex, quiet
// drains for RWMutex's registration protocol, single-writer
// reconciliations or idle combining sweeps for Counter and FetchOp —
// the built-in detection tolerates before switching back to the next,
// cheaper protocol. n must be positive. Default: DefaultEmptyLimit.
// Ignored when WithPolicy installs an explicit switching policy.
func WithEmptyLimit(n int) Option {
	if n <= 0 {
		panic("reactive: WithEmptyLimit requires n > 0")
	}
	return func(c *config) { c.emptyLimit = int32(n) }
}

// WithPollIters sets the two-phase polling budget, in spin iterations,
// that a waiter spends polling before parking (Lpoll expressed in
// iterations). n must be positive. Default: DefaultPollIters. Used by
// every two-phase wait, each of which polls it through the one
// waitq.Queue.Wait: Mutex (park-mode lockers), RWMutex (readers blocked
// by a writer, the draining writer, and its writer mutex), Counter and
// FetchOp (reconciling reads waiting for the sweep window), and Map (its
// writer lock and grace periods). The budget is deadline-aware: a
// waiter whose context ends mid-poll stops consuming it immediately, so
// a short Lpoll and a short deadline compose instead of competing.
func WithPollIters(n int) Option {
	if n <= 0 {
		panic("reactive: WithPollIters requires n > 0")
	}
	return func(c *config) { c.pollIters = int32(n) }
}

// WithPolicy installs an explicit protocol-switching policy from the
// reactive/policy package (3-competitive, hysteresis, weighted-average,
// always-switch, policy.Congestion), replacing the built-in streak
// detection that WithSpinFailLimit and WithEmptyLimit parameterize. The
// primitive serializes all calls into p; p must not be shared with any
// other primitive or goroutine. A nil p restores the built-in detection.
// On NewRWMutex the policy governs the writer mutex's spin/park engine;
// the registration protocol keeps the built-in streaks.
//
// Detection events are mapped onto the policy as in the simulator's
// reactive algorithms: direction 0 is cheap→scalable (contention
// appeared), direction 1 is scalable→cheap (contention disappeared), and
// the residual costs are ResidualCheapHigh and ResidualScalableLow —
// the up and down steps' Residual values in the primitive's
// reactive/modal chain. The policy hears exactly one event per observed
// operation (modal.Engine.Observe): Suboptimal when the operation votes
// for a step out of the current protocol, otherwise one Optimal — never
// both, and never one per step the protocol could take, so a contended
// write on a sharded Map ages a WeightedAverage once.
func WithPolicy(p policy.Policy) Option {
	return func(c *config) { c.pol = p }
}

// WithInitialMode starts a primitive in mode m instead of its cheapest
// protocol, walking the transition chain at construction time (when no
// concurrent use exists yet). A workload that is known to arrive
// already contended can skip the detection ramp — the reactive
// framework's static protocols are exactly its baselines — and
// benchmark harnesses can measure a specific protocol's fast path
// regardless of whether the host's parallelism would trigger detection.
// The primitive stays fully adaptive afterward: detection may move it
// away from m (pair with WithPolicy to bias how readily).
//
// Valid modes per constructor: New accepts ModeSpin and ModePark;
// NewCounter and NewFetchOp accept ModeCAS, ModeSharded, and
// ModeCombining; NewRWMutex accepts ModeSpin and ModePark, for its
// writer mutex (WithInitialReaderMode starts its reader registration
// protocol); NewMap accepts ModeLocked, ModeSharded, and ModeEpoch. The
// constructor panics on a mode the primitive has no protocol for.
func WithInitialMode(m Mode) Option {
	if m > ModeLocked {
		panic("reactive: WithInitialMode requires a valid Mode")
	}
	return func(c *config) { c.initMode = m; c.initModeSet = true }
}

// WithInitialReaderMode starts NewRWMutex's reader registration
// protocol in mode m — ModeCAS (the centralized word), ModeSharded
// (per-P cells), or ModeEpoch (per-P epoch stamps) — walking the
// registration chain at construction time, exactly as WithInitialMode
// does for the writer mutex. It is the only option that addresses the
// registration engine, so it composes with a
// WithInitialMode(ModeSpin/ModePark) writer-mutex choice, and it lets
// benchmarks and small-GOMAXPROCS hosts pin any of the three reader
// protocols regardless of whether the host's parallelism would trigger
// detection. The lock stays fully adaptive afterward. Panics unless m
// is one of the three registration modes; constructors other than
// NewRWMutex accept and ignore the option.
func WithInitialReaderMode(m Mode) Option {
	if !slices.Contains(readerModes, m) {
		panic(fmt.Sprintf("reactive: WithInitialReaderMode(%v): the registration modes are %v", m, readerModes))
	}
	return func(c *config) { c.initRMode = m; c.initRModeSet = true }
}

// apply folds opts into a config.
func (c *config) apply(opts []Option) {
	for _, o := range opts {
		o(c)
	}
}

// construct is the one construction step every constructor runs, before
// the primitive is shared: it folds opts into a config, stores the three
// tunables in *tun — the one copy the primitive reads them from — installs
// the policy on eng and walks eng to the initial mode. It returns the
// folded config for what only one constructor reads (NewRWMutex's
// WithInitialReaderMode).
func construct(opts []Option, tun *config, eng *modal.Engine, modes []Mode, step func(from, to modal.Mode)) config {
	var c config
	c.apply(opts)
	*tun = config{spinFailLimit: c.spinFailLimit, emptyLimit: c.emptyLimit, pollIters: c.pollIters}
	eng.SetPolicy(c.pol)
	if c.initModeSet {
		walkTo(eng, modes, c.initMode, step)
	}
	return c
}

// walkTo is the construction-time chain walk: it drives eng from
// wherever it is to m's position in modes — the engine's public modes in
// chain order — one step at a time, and panics when modes has no m.
// step is the primitive's own switch routine, which builds the target
// protocol's state before committing; it runs without the exclusion a
// live switch needs, sound only because the primitive is not yet shared.
func walkTo(eng *modal.Engine, modes []Mode, m Mode, step func(from, to modal.Mode)) {
	i := slices.Index(modes, m)
	if i < 0 {
		panic(fmt.Sprintf("reactive: WithInitialMode(%v): this primitive's modes are %v", m, modes))
	}
	target := modal.Mode(i)
	for cur := eng.Mode(); cur != target; cur = eng.Mode() {
		next := cur + 1
		if cur > target {
			next = cur - 1
		}
		step(cur, next)
	}
}

// Residual costs fed to injected policies (policy.Policy.Suboptimal), in
// the same abstract units the simulator uses (Section 3.5.5): serving a
// request with the cheap protocol under high contention wastes about ten
// times what serving one with the scalable protocol under no contention
// does. A 3-competitive policy's threshold should be calibrated against
// these units.
const (
	// ResidualCheapHigh is the residual cost charged when the cheap
	// protocol (spin / single-word CAS) serves a contended request.
	ResidualCheapHigh uint64 = 150
	// ResidualScalableLow is the residual cost charged when the scalable
	// protocol (parking / sharded cells) serves an uncontended request.
	ResidualScalableLow uint64 = 15
)
