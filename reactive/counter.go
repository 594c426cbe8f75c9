package reactive

import "context"

// Counter is a reactive fetch-and-add counter: the add-only
// specialization of FetchOp (operation +, identity 0), with the
// specialized atomic-add fast paths that operation enables. Under low
// contention it is a single shared word updated by compare-and-swap
// (ModeCAS); under update contention it shards across per-processor
// cells reconciled by Load (ModeSharded). ModeCombining is constructible
// with WithInitialMode but never selected by detection. The protocols
// and the transitions between them are FetchOp's — see its documentation
// for the protocol and detection details.
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

// Add atomically adds delta to the counter, adapting its protocol to
// contention.
func (c *Counter) Add(delta int64) { c.f.Apply(delta) }

// Load returns the current count, reconciling any sharded cells; see
// FetchOp.Value for the reconciliation and detection semantics.
func (c *Counter) Load() int64 { return c.f.Value() }

// LoadCtx returns the current count like Load, but gives up with
// ctx.Err() when ctx ends while waiting for the reconciliation sweep
// window; see FetchOp.ValueCtx.
func (c *Counter) LoadCtx(ctx context.Context) (int64, error) { return c.f.ValueCtx(ctx) }
