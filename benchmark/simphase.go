package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"time"

	"repro/internal/experiments"
	"repro/internal/stats"
)

// The simulator phase regenerates thesis figures at the regime's processor
// counts. Two quantities come out of it and are never mixed: simulated
// cycles (what the modelled machine would take; they repeat exactly for a
// seed) and host seconds (what the simulator costs to run; subject to the
// host's noise). A change meant to speed the simulator up must leave every
// table byte-identical, which the digest checks.

// simSpecs are the figures whose sweep follows Sizes.BaselineProcs, so a
// regime can confine them to its contention level. fig3.16-prototype sweeps
// a fixed 1..16 list whatever the Sizes and is therefore left out.
var simSpecs = []string{"fig3.15-spinlocks", "fig3.15-fetchop", "fig3.2-dirnnb", "fig3.26-messages"}

func simSizes(rg regime) experiments.Sizes {
	sz := experiments.Quick()
	sz.BaselineProcs = rg.simProcs
	sz.BaselineIters = rg.simIters
	return sz
}

// simBaseSeed derives the experiment matrix's base seed from -seed.
func simBaseSeed(seed uint64) uint64 { return derive(seed, "sim", 0).next() | 1 }

func lookupSpecs(names []string) ([]experiments.Spec, error) {
	specs := make([]experiments.Spec, len(names))
	for i, n := range names {
		s, ok := experiments.Default.Lookup(n)
		if !ok {
			return nil, fmt.Errorf("experiment %q is not registered", n)
		}
		specs[i] = s
	}
	return specs, nil
}

// simRep is one serial pass over the spec list.
type simRep struct {
	hostS   float64
	perSpec []float64
	tables  []*stats.Table
	digest  string
}

// runSpec runs one spec with the seed the Runner would give it, turning a
// simulator panic (deadlock report) into an error.
func runSpec(s experiments.Spec, sz experiments.Sizes, base uint64) (t *stats.Table, err error) {
	sz.Seed = experiments.ExperimentSeed(base, s.Name)
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("experiment %s panicked: %v", s.Name, p)
		}
	}()
	return s.Run(sz), nil
}

func runSimRep(specs []experiments.Spec, sz experiments.Sizes, base uint64, tr *tracer, tl *tally) simRep {
	defer tr.span("sim.pass")()
	var rep simRep
	h := sha256.New()
	for _, s := range specs {
		end := tr.span("Spec.Run:" + s.Name)
		t0 := time.Now()
		tb, err := runSpec(s, sz, base)
		d := time.Since(t0).Seconds()
		end()
		tl.attempted++
		tl.fail(err)
		rep.hostS += d
		rep.perSpec = append(rep.perSpec, d)
		rep.tables = append(rep.tables, tb)
		if tb != nil {
			fmt.Fprintf(h, "%s\n%s\n", s.Name, tb)
		}
	}
	rep.digest = hex.EncodeToString(h.Sum(nil))
	return rep
}

// reactiveVsBestStatic returns, for every row of a Figure 3.15 table, the
// reactive algorithm's overhead cycles divided by the best static
// protocol's. Cells where either is 0 (overhead below the subtracted
// test-loop latency) have no ratio and are skipped.
func reactiveVsBestStatic(t *stats.Table) []float64 {
	if t == nil {
		return nil
	}
	rcol := -1
	for i, h := range t.Header {
		if h == "reactive" {
			rcol = i
		}
	}
	if rcol < 0 {
		return nil
	}
	var out []float64
	for _, row := range t.Rows {
		best := 0.0
		for i := 1; i < len(row); i++ {
			v, err := strconv.ParseFloat(row[i], 64)
			if i == rcol || err != nil || v <= 0 {
				continue
			}
			if best == 0 || v < best {
				best = v
			}
		}
		r, err := strconv.ParseFloat(row[rcol], 64)
		if err == nil && r > 0 && best > 0 {
			out = append(out, r/best)
		}
	}
	return out
}

//go:embed digests.json
var digestsJSON []byte

// committedDigest is the digest recorded for a workload at -seed 1, or ""
// when none is.
func committedDigest(workload string) (string, error) {
	var m map[string]string
	if err := json.Unmarshal(digestsJSON, &m); err != nil {
		return "", fmt.Errorf("digests.json: %w", err)
	}
	return m[workload], nil
}

type simResult struct {
	HostS       summary   `json:"host_s"`
	PerSpecS    []float64 `json:"per_spec_s"` // medians, in simSpecs order
	VsStatic    float64   `json:"reactive_vs_best_static"`
	VsStaticN   int       `json:"ratio_cells"`
	Digest      string    `json:"digest"`
	DigestOK    bool      `json:"digest_ok"`
	DigestKnown bool      `json:"digest_committed"` // a committed digest applied (seed 1)
	Reps        int       `json:"reps"`
}

// digestCheck reports whether every repetition produced the same tables
// and, at seed 1, the ones committed under benchmark/.
func digestCheck(workload string, seed uint64, reps []simRep, tl *tally) (ok, known bool) {
	ok = true
	for _, r := range reps[1:] {
		tl.attempted++
		if r.digest != reps[0].digest {
			ok = false
			tl.fail(fmt.Errorf("simulator tables differ between repetitions: %s vs %s", r.digest, reps[0].digest))
		}
	}
	if seed != 1 {
		return ok, false
	}
	want, err := committedDigest(workload)
	tl.attempted++
	if err != nil || want == "" || want != reps[0].digest {
		ok = false
		tl.fail(fmt.Errorf("simulator tables at seed 1 have digest %s, committed %q (%v)", reps[0].digest, want, err))
	}
	return ok, true
}

// simRun makes the run's simulator passes: the same fixed work each time,
// so a pass's host seconds are a measurement and its tables must not
// change.
type simRun struct {
	rg    regime
	seed  uint64
	specs []experiments.Spec
	reps  []simRep
}

func newSimRun(rg regime, seed uint64) (*simRun, error) {
	specs, err := lookupSpecs(simSpecs)
	return &simRun{rg: rg, seed: seed, specs: specs}, err
}

func (sr *simRun) pass(tr *tracer, tl *tally) {
	sr.reps = append(sr.reps, runSimRep(sr.specs, simSizes(sr.rg), simBaseSeed(sr.seed), tr, tl))
}

func (sr *simRun) finish(tl *tally) simResult {
	var res simResult
	host := make([]float64, len(sr.reps))
	for i, r := range sr.reps {
		host[i] = r.hostS
	}
	res.HostS = summarize(host)
	for si := range sr.specs {
		col := make([]float64, len(sr.reps))
		for i, r := range sr.reps {
			col[i] = r.perSpec[si]
		}
		res.PerSpecS = append(res.PerSpecS, median(col))
	}
	var ratios []float64
	for si, s := range sr.specs {
		if s.Figure == "Figure 3.15" {
			ratios = append(ratios, reactiveVsBestStatic(sr.reps[0].tables[si])...)
		}
	}
	res.VsStatic, res.VsStaticN = geomean(ratios)
	res.Digest = sr.reps[0].digest
	res.DigestOK, res.DigestKnown = digestCheck(sr.rg.name, sr.seed, sr.reps, tl)
	res.Reps = len(sr.reps)
	return res
}
