package torture

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"repro/internal/experiments"
	"repro/reactive/chaos"
)

// ReproVersion is the artifact format version. Bump it when the layout
// or the meaning of a field changes, or when the chaos catalog drops a
// point an artifact's schedule may name; DecodeRepro rejects other
// versions rather than silently replaying a different experiment.
const ReproVersion = "torture/v5"

// Repro is the complete, replayable description of one torture run:
// the case, the derived seed every worker op stream comes from, the
// fleet shape, and the chaos fault schedule. Encoding is canonical
// (json.MarshalIndent with fixed field order), so two derivations of
// the same run are byte-identical — the determinism contract cmd
// torture's tests pin.
type Repro struct {
	Version    string          `json:"version"`
	Case       string          `json:"case"`
	Seed       uint64          `json:"seed"` // derived case seed, not the base seed
	Workers    int             `json:"workers"`
	Ops        int             `json:"ops"` // per worker
	GOMAXPROCS int             `json:"gomaxprocs"`
	ChaosBuilt bool            `json:"chaos_built"` // emitting binary had fault hooks compiled in
	Schedule   *chaos.Schedule `json:"schedule"`
}

// NewRepro derives the run descriptor for one case: the case seed is
// experiments.ExperimentSeed(base, "torture/"+name) — the same
// derivation the experiment matrix uses, so a torture case's seed is
// stable across runs and distinct across cases — and the fault
// schedule is the full-catalog schedule for that seed.
func NewRepro(name string, base uint64, workers, ops int) (*Repro, error) {
	if _, ok := lookup(name); !ok {
		return nil, fmt.Errorf("torture: unknown case %q", name)
	}
	if workers < 1 || ops < 1 {
		return nil, fmt.Errorf("torture: need at least 1 worker and 1 op, got %d/%d", workers, ops)
	}
	seed := experiments.ExperimentSeed(base, "torture/"+name)
	return &Repro{
		Version:    ReproVersion,
		Case:       name,
		Seed:       seed,
		Workers:    workers,
		Ops:        ops,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		ChaosBuilt: chaos.Built,
		Schedule:   chaos.New(seed),
	}, nil
}

// Encode renders the artifact canonically. Same Repro, same bytes.
func (r *Repro) Encode() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// DecodeRepro parses and validates an artifact: version and case must
// be known, the fleet shape positive, and the schedule present (its
// rules are re-clamped to the injection bounds, so a hand-edited
// artifact cannot smuggle in an unbounded stall).
func DecodeRepro(b []byte) (*Repro, error) {
	var r Repro
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("torture: bad repro artifact: %w", err)
	}
	if r.Version != ReproVersion {
		return nil, fmt.Errorf("torture: repro version %q, this binary speaks %q", r.Version, ReproVersion)
	}
	if _, ok := lookup(r.Case); !ok {
		return nil, fmt.Errorf("torture: repro names unknown case %q", r.Case)
	}
	if r.Workers < 1 || r.Ops < 1 {
		return nil, fmt.Errorf("torture: repro has empty fleet shape %d/%d", r.Workers, r.Ops)
	}
	if r.Schedule == nil {
		return nil, fmt.Errorf("torture: repro has no fault schedule")
	}
	enc, err := r.Schedule.Encode()
	if err != nil {
		return nil, fmt.Errorf("torture: repro schedule: %w", err)
	}
	if r.Schedule, err = chaos.Decode(enc); err != nil {
		return nil, fmt.Errorf("torture: repro schedule: %w", err)
	}
	return &r, nil
}

// Run executes the described run: the Repro's schedule (not a freshly
// derived one — replay must honor a hand-carried artifact) is armed for
// the duration, the case's fleet runs with op streams seeded from
// r.Seed, and the per-point fault hit counts come back in the Result.
// guard bounds the whole fleet drain; <= 0 disables the watchdog.
func (r *Repro) Run(guard time.Duration) Result {
	start := time.Now()
	res := Result{Case: r.Case, Seed: r.Seed}
	c, ok := lookup(r.Case)
	if !ok {
		res.Err = fmt.Errorf("torture: unknown case %q", r.Case)
		return res
	}
	chaos.Enable(r.Schedule) // no-op without the reactive_chaos build tag
	defer chaos.Disable()
	res.Err = c.run(runCtx{seed: r.Seed, workers: r.Workers, ops: r.Ops, guard: guard})
	res.Points = chaos.Stats()
	res.Elapsed = time.Since(start)
	return res
}
