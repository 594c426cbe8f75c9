// Package torture is a locktorture-style stress driver for the
// reactive primitives: it hammers every primitive and mode chain with
// mixed op vocabularies (blocking, try, deadline-bounded, and
// cancellation-storm acquisitions, plus policy-driven mode flips) while
// asserting the properties the paper's proofs rest on — mutual
// exclusion (audited by the race detector through plain shared
// variables), conservation (no operand or increment lost), progress (a
// stranded-waiter watchdog), and structural soundness
// (CheckInvariants).
//
// Every run is described by a Repro: the derived case seed, the fleet
// shape, and the chaos fault schedule for that seed. The same Repro
// always produces the same op streams and the same injected fault
// schedule, so a failing run can be re-executed exactly — cmd/torture
// emits the Repro as a JSON artifact on failure and replays one with
// -replay. Outcomes that depend on the Go scheduler (which TryLock
// wins, which reader parks) still vary; the schedule of attempted ops
// and injected faults does not.
//
// Fault injection is live only when the binary is built with the
// reactive_chaos tag; in a default build the schedule is still derived
// and recorded (so artifacts are comparable) but chaos.Enable is a
// no-op.
package torture

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/watchdog"
	"repro/reactive/chaos"
)

// Case is one torture scenario: a primitive, a mode chain to walk, a
// switching policy, and an op vocabulary.
type Case struct {
	Name string // "primitive/flavor", e.g. "mutex/flip-storm"
	Desc string // one line for -list and the docs table
	run  func(rc runCtx) error
}

// runCtx carries the resolved parameters of one case execution.
type runCtx struct {
	seed    uint64 // derived case seed; the root of every worker stream
	workers int
	ops     int // per worker
	guard   time.Duration
}

// Result is the outcome of one case execution.
type Result struct {
	Case    string
	Seed    uint64 // derived case seed (not the base seed)
	Err     error  // nil on success
	Elapsed time.Duration
	Points  []chaos.PointStat // fault-point hit counts; empty without the chaos tag
}

// Cases returns the registered scenarios, sorted by name.
func Cases() []Case {
	out := make([]Case, len(cases))
	copy(out, cases)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func lookup(name string) (Case, bool) {
	for _, c := range cases {
		if c.Name == name {
			return c, true
		}
	}
	return Case{}, false
}

// prng is the deterministic per-worker op stream: SplitMix64 seeded
// from the case seed and the worker index, so a (seed, worker) pair
// names the same op sequence in every run and every build.
type prng struct{ s uint64 }

func newPRNG(caseSeed uint64, worker int) *prng {
	return &prng{s: caseSeed ^ (uint64(worker)+1)*0x9e3779b97f4a7c15}
}

func (p *prng) next() uint64 {
	p.s += 0x9e3779b97f4a7c15
	z := p.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (p *prng) intn(n int) int { return int(p.next() % uint64(n)) }

// µs returns a short deadline in [1, n] microseconds, the scale at
// which deadline-bounded ops actually race the protocols rather than
// always winning.
func (p *prng) µs(n int) time.Duration {
	return time.Duration(1+p.intn(n)) * time.Microsecond
}

// fleet runs cfg.workers goroutines, each executing worker with its own
// deterministic op stream, under the stranded-waiter watchdog. It
// returns the watchdog error if the fleet fails to drain, otherwise the
// first worker error (a worker panic is converted into one).
func fleet(rc runCtx, snap func() string, worker func(id int, rng *prng) error) error {
	errs := make(chan error, rc.workers)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for id := 0; id < rc.workers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs <- fmt.Errorf("worker %d panicked: %v\n%s", id, r, watchdog.Dump())
				}
			}()
			if err := worker(id, newPRNG(rc.seed, id)); err != nil {
				errs <- fmt.Errorf("worker %d: %w", id, err)
			}
		}(id)
	}
	go func() { wg.Wait(); close(done) }()
	if err := watchdog.Await(done, rc.guard, snap); err != nil {
		return err
	}
	select {
	case err := <-errs:
		return err
	default:
		return nil
	}
}
