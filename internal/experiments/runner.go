package experiments

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sync"

	"repro/internal/stats"
)

// Result is the outcome of one experiment run: the spec, the machine
// seed the run used, and either the produced table or the error (a
// recovered panic from the simulated machine, e.g. a deadlock report).
type Result struct {
	Spec  Spec
	Seed  uint64
	Table *stats.Table
	Err   error
}

// Runner executes a set of experiment specs over a bounded worker pool.
// Every experiment builds its own simulated machines, so the matrix is
// embarrassingly parallel; results are collected in input order and each
// spec's machine seed depends only on (BaseSeed, spec name), making
// parallel output byte-identical to a serial run.
type Runner struct {
	Sizes    Sizes  // experiment scales; per-spec Seed is overridden
	Parallel int    // max concurrent experiments (<=0: GOMAXPROCS)
	BaseSeed uint64 // matrix base seed (0: DefaultSeed)
}

// hostMillis is the host time, in milliseconds, of the registered specs
// that take most of a run at Tiny sizes (the tier-1 test matrix),
// recorded once on a 2-vCPU amd64 host (go1.24). Every other spec took
// 250 ms or less there and is left out. Run hands specs to its workers
// longest first, so a long spec does not start last while the other
// workers idle; a spec missing here counts as 0 and keeps its input
// position among its equals. Only the dispatch order reads it: results
// come back in input order and a spec's seed depends only on its name,
// so a stale entry costs wall time, never a different table. The order
// at other sizes is not measured: the benchmark's four-spec phase
// names none of these specs and keeps its input order.
var hostMillis = map[string]int{
	"fig3.24-fetchop-apps":  8224,
	"fig3.22-competitive":   6422,
	"fig3.21-timevary":      5067,
	"fig3.23-hysteresis":    4642,
	"fig3.17-multilock":     1432,
	"fig3.25-spinlock-apps": 922,
}

// Run executes the specs, longest first by hostMillis, and returns one
// Result per spec, in input order.
func (r *Runner) Run(specs []Spec) []Result {
	workers := r.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(specs) {
		workers = len(specs)
	}
	base := r.BaseSeed
	if base == 0 {
		base = DefaultSeed
	}
	order := make([]int, len(specs))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		return hostMillis[specs[b].Name] - hostMillis[specs[a].Name]
	})
	results := make([]Result, len(specs))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i] = runOne(specs[i], r.Sizes, base)
			}
		}()
	}
	for _, i := range order {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return results
}

// runOne executes a single spec with its derived seed, converting panics
// (simulator deadlock/livelock reports) into errors so one failing
// experiment cannot take down the rest of the matrix.
func runOne(spec Spec, sz Sizes, baseSeed uint64) (res Result) {
	res.Spec = spec
	res.Seed = ExperimentSeed(baseSeed, spec.Name)
	sz.Seed = res.Seed
	defer func() {
		if p := recover(); p != nil {
			res.Table = nil
			res.Err = fmt.Errorf("experiment %s panicked: %v", spec.Name, p)
		}
	}()
	res.Table = spec.Run(sz)
	return res
}

// FirstErr returns the first failed result's error, or nil.
func FirstErr(results []Result) error {
	for _, res := range results {
		if res.Err != nil {
			return fmt.Errorf("%s: %w", res.Spec.Name, res.Err)
		}
	}
	return nil
}

// WriteText renders results as the captioned text tables the commands
// have always printed.
func WriteText(w io.Writer, results []Result) error {
	for _, res := range results {
		if res.Err != nil {
			if _, err := fmt.Fprintf(w, "== %s ==\nERROR: %v\n\n", res.Spec.Title, res.Err); err != nil {
				return err
			}
			continue
		}
		if _, err := fmt.Fprintf(w, "== %s ==\n%s\n", res.Spec.Title, res.Table); err != nil {
			return err
		}
	}
	return nil
}

// jsonResult is the machine-readable form of one Result.
type jsonResult struct {
	Name   string       `json:"name"`
	Figure string       `json:"figure"`
	Title  string       `json:"title"`
	Tool   string       `json:"tool"`
	Seed   uint64       `json:"seed"`
	Table  *stats.Table `json:"table,omitempty"`
	Error  string       `json:"error,omitempty"`
}

// jsonDoc is the top-level JSON document: the parameters the matrix ran
// with plus one entry per experiment.
type jsonDoc struct {
	Params  any          `json:"params"`
	Results []jsonResult `json:"results"`
}

// WriteJSON emits results as an indented, deterministic JSON document.
// params records whatever parameterized the run (a Sizes for the
// registry commands, lockstat's flag values for its sweep) so the
// document alone suffices to reproduce it.
func WriteJSON(w io.Writer, params any, results []Result) error {
	doc := jsonDoc{Params: params, Results: make([]jsonResult, 0, len(results))}
	for _, res := range results {
		jr := jsonResult{
			Name:   res.Spec.Name,
			Figure: res.Spec.Figure,
			Title:  res.Spec.Title,
			Tool:   res.Spec.Tool,
			Seed:   res.Seed,
		}
		if res.Err != nil {
			jr.Error = res.Err.Error()
		} else {
			jr.Table = res.Table
		}
		doc.Results = append(doc.Results, jr)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// WriteCSV emits results as one flat CSV stream with records of the
// form experiment,kind,cells..., where kind is "header", "row", or
// "error" — flat enough to load into a spreadsheet or a dataframe
// without per-experiment files.
func WriteCSV(w io.Writer, results []Result) error {
	cw := csv.NewWriter(w)
	for _, res := range results {
		if res.Err != nil {
			if err := cw.Write([]string{res.Spec.Name, "error", res.Err.Error()}); err != nil {
				return err
			}
			continue
		}
		if err := cw.Write(append([]string{res.Spec.Name, "header"}, res.Table.Header...)); err != nil {
			return err
		}
		for _, row := range res.Table.Rows {
			if err := cw.Write(append([]string{res.Spec.Name, "row"}, row...)); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
