// Command waitsim regenerates the waiting-algorithm experiments of
// Chapter 4: the blocking-cost breakdown (Table 4.1), the analytic
// competitive-factor curves (Figures 4.4-4.5), the measured waiting-time
// profiles (Figures 4.6-4.11), and the benchmark execution times
// (Figures 4.12-4.14 / Tables 4.3-4.6). Experiments come from the shared
// registry (internal/experiments) and any subset runs in parallel
// without changing the output.
//
// Usage:
//
//	waitsim -list                  # show experiment names and groups
//	waitsim -exp table4.1
//	waitsim -exp factors           # Figures 4.4 and 4.5
//	waitsim -exp profiles          # Figures 4.6-4.11 (summary table)
//	waitsim -exp profiles -hist    # ...plus semi-log histograms
//	waitsim -exp benchmarks        # Figures 4.12-4.14 / Tables 4.3-4.5
//	waitsim -exp all -parallel 8 -json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/expcli"
	"repro/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command less the process exit.
func run(args []string, stdout, stderr io.Writer) int {
	cfg := expcli.Config{
		Tool: experiments.ToolWaitsim,
		ExtraFlags: func(fs *flag.FlagSet) func(io.Writer, experiments.Sizes, []experiments.Result) error {
			hist := fs.Bool("hist", false, "with the profiles experiment selected, also print its semi-log histograms (text output only)")
			return func(w io.Writer, sz experiments.Sizes, results []experiments.Result) error {
				if !*hist {
					return nil
				}
				// Histograms accompany the profiles experiment, so -hist
				// without it in the selection is a usage error. They reuse
				// its exact seed so they match the summary table just
				// printed. This reruns WaitProfiles (~tens of ms at Quick
				// scale) rather than caching side data in the registry
				// result.
				selected := false
				for _, res := range results {
					if res.Spec.Name != experiments.ProfilesExperiment {
						continue
					}
					selected = true
					if res.Err != nil {
						continue
					}
					sz.Seed = res.Seed
					for _, p := range experiments.WaitProfiles(sz) {
						if _, err := fmt.Fprintf(w, "== %s ==\n%s\n", p.Name, p); err != nil {
							return err
						}
					}
				}
				if !selected {
					return expcli.UsageError("-hist: the selection has no " + experiments.ProfilesExperiment + " to draw histograms for (add -exp profiles)")
				}
				return nil
			}
		},
	}
	return expcli.Main(cfg, args, stdout, stderr)
}
