// Package expcli is the shared command-line front end for the experiment
// commands (reactsim, waitsim): it resolves an experiment expression
// against the registry, executes the selection over the parallel runner,
// and renders text, JSON, or CSV. Both commands expose the same flags, so
// the harness behaves uniformly regardless of which chapter's matrix is
// being regenerated.
package expcli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"runtime"
	"strings"

	"repro/internal/experiments"
)

// Config selects the slice of the registry a command fronts and lets it
// install extra flags.
type Config struct {
	// Tool filters the registry (experiments.ToolReactsim or
	// experiments.ToolWaitsim); empty means the whole matrix.
	Tool string
	// Registry defaults to experiments.Default.
	Registry *experiments.Registry
	// ExtraFlags, if non-nil, installs tool-specific flags on fs and
	// returns a hook executed after the standard output has been
	// written (or nil for no post-processing). The hook receives the
	// base sizes of the run and the results of the experiments that
	// actually ran, so it can key off the selection.
	ExtraFlags func(fs *flag.FlagSet) func(w io.Writer, sz experiments.Sizes, results []experiments.Result) error
}

// UsageError is a hook's complaint about the command line (a tool flag
// that does not fit the selection): Main exits 2 on it, as on a bad flag or
// an unknown experiment, where any other hook error exits 1.
type UsageError string

func (e UsageError) Error() string { return string(e) }

// Main runs the command: parse args, select experiments, run, render.
// It returns the process exit code.
func Main(cfg Config, args []string, stdout, stderr io.Writer) int {
	reg := cfg.Registry
	if reg == nil {
		reg = experiments.Default
	}
	fs := flag.NewFlagSet(cfg.Tool, flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiments to run: 'all', or a comma-separated list of names and groups (see -list)")
	full := fs.Bool("full", false, "paper-scale sizes (64 processors; slow)")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0), "max experiments running concurrently (results are identical at any value)")
	seed := fs.Uint64("seed", experiments.DefaultSeed, "base seed for the experiment matrix")
	jsonOut := fs.Bool("json", false, "emit machine-readable JSON instead of text tables")
	csvOut := fs.Bool("csv", false, "emit flat CSV instead of text tables")
	list := fs.Bool("list", false, "list experiment names and groups, then exit")
	var after func(io.Writer, experiments.Sizes, []experiments.Result) error
	if cfg.ExtraFlags != nil {
		after = cfg.ExtraFlags(fs)
	}
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	if *list {
		writeList(stdout, reg, cfg.Tool)
		return 0
	}

	sz := experiments.Quick()
	if *full {
		sz = experiments.Full()
	}
	// Record the matrix base seed in sz so JSON output reproduces the
	// run; the runner derives each experiment's own seed from it.
	sz.Seed = *seed

	specs, err := reg.Select(cfg.Tool, *exp)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	runner := experiments.Runner{Sizes: sz, Parallel: *parallel, BaseSeed: *seed}
	results := runner.Run(specs)

	switch {
	case *jsonOut:
		err = experiments.WriteJSON(stdout, sz, results)
	case *csvOut:
		err = experiments.WriteCSV(stdout, results)
	default:
		err = experiments.WriteText(stdout, results)
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if after != nil && !*jsonOut && !*csvOut {
		if err := after(stdout, sz, results); err != nil {
			fmt.Fprintln(stderr, err)
			if errors.As(err, new(UsageError)) {
				return 2
			}
			return 1
		}
	}
	if err := experiments.FirstErr(results); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}

// writeList prints the selectable experiment names, figures, and groups.
func writeList(w io.Writer, reg *experiments.Registry, tool string) {
	fmt.Fprintf(w, "%-28s %-24s %s\n", "NAME", "FIGURE", "GROUPS")
	for _, s := range reg.Specs() {
		if tool != "" && s.Tool != tool {
			continue
		}
		fmt.Fprintf(w, "%-28s %-24s %s\n", s.Name, s.Figure, strings.Join(s.Groups, ","))
	}
}
