// Loadgen drives the in-process reactive service (internal/loadsvc)
// with open-loop traffic and reports the tail-latency trajectory.
//
//	go run ./cmd/loadgen -scenario all -duration 2s -json bench_tail.json
//
// Each scenario schedules requests at a fixed arrival rate — arrivals
// never wait for completions, so an overloaded service accumulates
// queueing delay and the p99/p999 quantiles show it (the open-loop
// methodology; DESIGN.md §7). The run prints a per-scenario summary
// table and, with -json, writes the bench_tail/v2 document — one report
// per scenario — the artifact CI's loadtest job uploads.
//
// -list prints the scenario matrix (EXPERIMENTS.md's "Load scenarios"
// table documents it). -scenario accepts a comma-separated subset or
// "all".
//
// The exit code is nonzero when any scenario strands a worker past the
// -guard timeout (a lost wakeup inside a primitive — must never happen)
// or reports request errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/loadsvc"
	"repro/internal/stats"
)

func main() {
	scenario := flag.String("scenario", "all", "scenario name, comma-separated subset, or \"all\"")
	duration := flag.Duration("duration", 2*time.Second, "scheduled arrival window per scenario")
	rate := flag.Int("rate", 0, "arrivals per second (0: per-scenario default)")
	workers := flag.Int("workers", 0, "worker lanes pulling dispatched requests (0: default 16)")
	seed := flag.Uint64("seed", 1, "base seed; per-scenario seeds derive from it")
	guard := flag.Duration("guard", loadsvc.GuardDefault, "stranded-waiter timeout after the last arrival")
	jsonPath := flag.String("json", "", "write the "+loadsvc.TailSchema+" document here")
	list := flag.Bool("list", false, "list scenarios and exit")
	flag.Parse()

	if *list {
		for _, sc := range loadsvc.Scenarios() {
			fmt.Printf("%-18s %s\n", sc.Name, sc.Mix)
		}
		return
	}

	specs, err := selectScenarios(*scenario)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(2)
	}

	opts := loadsvc.Options{
		Rate:     *rate,
		Duration: *duration,
		Workers:  *workers,
		Seed:     *seed,
		Guard:    *guard,
	}

	var reports []*loadsvc.Report
	failed := false
	for _, sc := range specs {
		rep, err := loadsvc.Run(sc, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			failed = true
		}
		reports = append(reports, rep)
		if rep.LostWaiters > 0 || rep.Errors > 0 {
			failed = true
		}
	}

	printSummary(reports)

	if *jsonPath != "" {
		doc := loadsvc.TailDoc{Schema: loadsvc.TailSchema, Scenarios: reports}
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			os.Exit(1)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*jsonPath, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %s (%d scenarios)\n", *jsonPath, len(reports))
	}

	if failed {
		fmt.Fprintln(os.Stderr, "loadgen: FAILED (lost waiters or request errors above)")
		os.Exit(1)
	}
}

// selectScenarios resolves the -scenario expression against the matrix.
func selectScenarios(expr string) ([]loadsvc.Spec, error) {
	if expr == "all" {
		return loadsvc.Scenarios(), nil
	}
	var specs []loadsvc.Spec
	seen := map[string]bool{}
	for _, name := range strings.Split(expr, ",") {
		name = strings.TrimSpace(name)
		if name == "" || seen[name] {
			continue
		}
		seen[name] = true
		sc, ok := loadsvc.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("unknown scenario %q (try -list)", name)
		}
		specs = append(specs, sc)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("empty scenario selection %q", expr)
	}
	return specs, nil
}

// printSummary renders the per-scenario result table plus the scraped
// per-primitive deltas.
func printSummary(reports []*loadsvc.Report) {
	tb := &stats.Table{Header: []string{
		"scenario", "reqs", "p50(µs)", "p99(µs)", "p999(µs)", "max(µs)",
		"cancel%", "stale%", "lost",
	}}
	for _, r := range reports {
		tb.AddRow(r.Scenario,
			fmt.Sprintf("%d", r.Requests),
			fmt.Sprintf("%.1f", r.P50Us),
			fmt.Sprintf("%.1f", r.P99Us),
			fmt.Sprintf("%.1f", r.P999Us),
			fmt.Sprintf("%.1f", r.MaxUs),
			fmt.Sprintf("%.1f", 100*r.CancelledRate),
			fmt.Sprintf("%.1f", 100*r.StaleRate),
			fmt.Sprintf("%d", r.LostWaiters),
		)
	}
	fmt.Print(tb.String())

	for _, r := range reports {
		if len(r.Primitives) == 0 {
			continue
		}
		names := make([]string, 0, len(r.Primitives))
		for name := range r.Primitives {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Printf("\n%s primitives:", r.Scenario)
		for _, name := range names {
			d := r.Primitives[name]
			fmt.Printf(" %s{mode=%s +%dsw", name, d.Mode, d.Switches)
			if d.ReaderMode != "" {
				fmt.Printf(" readers=%s +%dsw", d.ReaderMode, d.ReaderSwitches)
			}
			fmt.Print("}")
		}
		fmt.Println()
		for _, s := range r.Sub {
			tag := fmt.Sprintf("procs=%d", s.Procs)
			if s.Mode != "" {
				tag = "mode=" + s.Mode
			}
			fmt.Printf("%s %s: n=%d p50=%.1fµs p99=%.1fµs p999=%.1fµs\n",
				r.Scenario, tag, s.Requests, s.P50Us, s.P99Us, s.P999Us)
		}
	}
}
