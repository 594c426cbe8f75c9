package reactive

import (
	"context"

	"repro/reactive/internal/affinity"
	"repro/reactive/modal"
)

// Counter is a reactive fetch-and-add counter: the add-only
// specialization of FetchOp (operation +, identity 0), with the
// specialized atomic-add fast paths that operation enables. Under low
// contention it is a single shared word updated by one atomic add, as
// atomic.Int64 is (ModeCAS, named for the chain position it shares with
// FetchOp); under update contention it shards across per-processor
// cells reconciled by Load (ModeSharded). ModeCombining is constructible
// with WithInitialMode but never selected by detection. The protocols
// and the transitions between them are FetchOp's — see its documentation
// for the protocol and detection details — except ModeCAS's detection
// event: an add cannot fail, so one add in 32, sampled at random, probes
// whether another update landed beside it (Add).
//
// The zero value is a zero Counter in CAS mode with the package-default
// tunables; NewCounter builds one with explicit Options. A Counter must
// not be copied after first use.
type Counter struct {
	f FetchOp // zero op = addition, identity 0
}

// NewCounter builds a Counter configured by opts. NewCounter() with no
// options is equivalent to a zero-value Counter. WithPollIters bounds
// how long Load polls for the reconciliation sweep window before
// parking (Add never parks).
func NewCounter(opts ...Option) *Counter {
	c := &Counter{}
	construct(opts, &c.f.cfg, &c.f.eng, fopModes, c.f.switchFop)
	return c
}

// Stats returns a snapshot of the counter's adaptive state.
func (c *Counter) Stats() Stats { return c.f.Stats() }

// probeEvery sets the rate of ModeCAS's contention probe: one add in
// probeEvery probes, chosen by a per-thread pseudo-random draw. The rate
// is also how fast a contended counter leaves ModeCAS — SpinFailLimit
// Busy probes in a row — which matters where reconciling Loads keep
// demoting it: at one in 64 such a counter spent measurably longer in
// ModeCAS than at 32, and one in 16 gave back much of the uncontended
// add's saving (DESIGN.md §2).
const probeEvery = 32

// Add atomically adds delta to the counter, adapting its protocol to
// contention. An Add(0) returns without touching the counter in any
// mode.
//
// In ModeCAS the add is one locked add on the shared word, as
// atomic.Int64.Add is: no load precedes it. One add in 32, drawn at
// random after the add whatever its delta or the count's value, then
// probes for contention (probe).
func (c *Counter) Add(delta int64) {
	if delta == 0 {
		return
	}
	f := &c.f
	switch f.eng.Mode() {
	case fCAS:
		if n := f.base.Add(delta); affinity.Rand()%probeEvery == 0 {
			c.probe(n)
		}
	case fSharded:
		f.applyCell(delta)
	default:
		f.applyCombining(delta)
	}
}

// probe is ModeCAS's detection event, taken by an add whose result was
// n: one load of the shared word. A value other than n means another
// update landed between the add and the load — Busy, and SpinFailLimit
// consecutive Busy probes (built-in detection) or the injected policy's
// say-so switch ModeCAS → ModeSharded. An unchanged word is Calm, which
// breaks the streak. It stays out of line so the add it follows is the
// whole of the common path.
//
//go:noinline
func (c *Counter) probe(n int64) {
	f := &c.f
	if f.base.Load() != n {
		f.observe(fCAS, modal.Busy)
	} else if !f.eng.CalmBottom(fopTable) {
		f.observe(fCAS, modal.Calm)
	}
}

// Load returns the current count, reconciling any sharded cells; see
// FetchOp.Value for the reconciliation and detection semantics.
func (c *Counter) Load() int64 { return c.f.Value() }

// LoadCtx returns the current count like Load, but gives up with
// ctx.Err() when ctx ends while waiting for the reconciliation sweep
// window; see FetchOp.ValueCtx.
func (c *Counter) LoadCtx(ctx context.Context) (int64, error) { return c.f.ValueCtx(ctx) }
