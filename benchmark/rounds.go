package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// A run is a sequence of rounds, and every round holds a slice of
// everything: one slice of each implementation of each primitive cell, one
// service slice, and — on as many rounds as the budget allows — one
// simulator pass. Each metric is the midmean over its slices, so a stretch
// of host noise a few seconds long costs every metric a slice or two, where
// phase after phase it would own one metric's whole measurement.

type plan struct {
	rounds    int
	primSlice time.Duration
	svcSlice  time.Duration
	simBudget time.Duration // host time the simulator passes may take in all
	simMin    int           // passes made whatever the budget
	// tracedSvc makes every round run two service slices, one traced and
	// one not; their difference is what tracing costs.
	tracedSvc bool
}

// control is the host-speed control: stdlib-only work on one goroutine —
// an uncontended sync.Mutex pair, an atomic add and a few dependent ALU
// steps per op — that no change to this repository can move. What moves it
// is the host: this VM's speed drifts by 20-30 % for minutes at a time, and
// every round times a slice of the control so that a run knows how fast
// its host was.
type control struct {
	mu sync.Mutex
	n  atomic.Int64
	x  uint64
}

func (c *control) run(ops int) {
	for i := 0; i < ops; i++ {
		c.mu.Lock()
		c.x = churn(c.x, 8)
		c.mu.Unlock()
		c.n.Add(1)
	}
}

// controlNominalNs is the control's cost on the reference host: this
// container when quiet reads 19.7-20.8 ns. A run's time metrics are
// multiplied by controlNominalNs ÷ its own control, which restates them at
// the reference host's speed.
const controlNominalNs = 20.7

type roundsResult struct {
	control   summary // raw ns per control op, over the rounds
	prims     []primResult
	svc       svcResult // untraced slices
	svcTraced svcResult // only with plan.tracedSvc
	sim       simResult
}

func runRounds(rg regime, seed uint64, b built, pl plan, tr *tracer, tl *tally) (roundsResult, error) {
	var res roundsResult
	cr := newCellRun(b.cells, b.g)
	sr, err := newSimRun(rg, seed)
	if err != nil {
		return res, err
	}

	end := tr.span("round:settle")
	cr.round(pl.primSlice, false, tr, tl)
	b.svc.slice(pl.svcSlice, nil, tl)
	end()

	var plain, traced []svcSlice
	var ctl control
	var ctlNs []float64
	simWant := pl.rounds // until the first pass has been timed
	for r := 0; r < pl.rounds; r++ {
		end := tr.span("round")
		cr.round(pl.primSlice, true, tr, tl)
		endC := tr.span("slice:control")
		ops, wall := runSlice(1, pl.primSlice, nil, untilDeadline(batchOps, func(_, n int) { ctl.run(n) }))
		endC()
		ctlNs = append(ctlNs, nsPerOp(ops, wall))
		if pl.tracedSvc {
			endT := tr.span("slice:service/traced")
			traced = append(traced, b.svc.slice(pl.svcSlice, tr, tl))
			endT()
		}
		endU := tr.span("slice:service/untraced")
		plain = append(plain, b.svc.slice(pl.svcSlice, nil, tl))
		endU()
		// Spread the passes evenly over the rounds: pass when the share
		// of passes made has fallen behind the share of rounds run.
		if done := len(sr.reps); done < simWant && done*pl.rounds <= r*simWant {
			sr.pass(tr, tl)
			if done == 0 {
				simWant = max(pl.simMin, min(pl.rounds, int(pl.simBudget.Seconds()/sr.reps[0].hostS)))
			}
		}
		end()
	}

	res.control = summarize(ctlNs)
	res.prims = cr.finish(tl)
	b.svc.check(tl)
	res.svc = summarizeSvc(b.svc, plain)
	if pl.tracedSvc {
		res.svcTraced = summarizeSvc(b.svc, traced)
	}
	res.sim = sr.finish(tl)
	return res, nil
}
