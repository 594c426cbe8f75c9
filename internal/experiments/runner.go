package experiments

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
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

// Run executes the specs and returns one Result per spec, in input order.
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
	for i := range specs {
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
