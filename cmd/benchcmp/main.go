// Benchcmp compares two bench_tail/v1 documents — the tail-latency
// trajectories cmd/loadgen writes (flat scenario/quantile rows in
// microseconds) — and prints old/new/delta per row.
//
//	go run ./cmd/benchcmp -old bench_tail_baseline.json -new bench_tail.json
//
// With -threshold <pct> the comparison becomes a regression gate: any
// row slower than the baseline by more than pct percent is listed in a
// "regressions over threshold" section and the exit code is 1. Rows
// ending in "/max" are reported but never gated — a single outlier
// dispatch is not a regression. Rows present on only one side (a
// host-specific GOMAXPROCS rung, a renamed scenario) are reported as
// new/removed, never treated as an error, so baselines stay usable
// across hosts.
//
// Exit code 2 means there was nothing to compare: a side that cannot be
// read, is not a bench_tail/v1 document, or shares no row with the other.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"strings"

	"repro/internal/loadsvc"
)

func load(path string) (*loadsvc.TailDoc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc loadsvc.TailDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}

func main() {
	oldPath := flag.String("old", "bench_tail_baseline.json", "baseline bench_tail/v1 document")
	newPath := flag.String("new", "bench_tail.json", "fresh bench_tail/v1 document")
	threshold := flag.Float64("threshold", 0,
		"fail (exit 1) when a row regresses beyond this percentage; 0 disables the gate")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(2)
	}
	oldDoc, err := load(*oldPath)
	if err != nil {
		fail(err)
	}
	newDoc, err := load(*newPath)
	if err != nil {
		fail(err)
	}
	regressions, err := compareTail(os.Stdout, oldDoc, newDoc, *threshold)
	if err != nil {
		fail(err)
	}
	if *threshold > 0 {
		fmt.Printf("\n== regressions over threshold (%.1f%%) ==\n", *threshold)
		if len(regressions) == 0 {
			fmt.Println("none")
			return
		}
		for _, r := range regressions {
			fmt.Println(r)
		}
		os.Exit(1)
	}
}

// compareTail prints old/new/delta µs for the tail-latency trajectory
// rows to w and returns the rows that regressed beyond threshold percent
// (none when the gate is disabled with threshold ≤ 0). Rows present on
// only one side are reported as new/removed, never errors: GOMAXPROCS
// sweep rungs above 4 are host-specific, and scenario additions should
// not invalidate old baselines. Rows ending in "/max" are never gated —
// a single outlier dispatch on a noisy host is not a regression; the
// gated trajectory is p50/p99/p999. It is an error for either side not
// to be a bench_tail/v1 document, or for the two to share no row: a gate
// that compared nothing must not report "none".
func compareTail(w io.Writer, oldDoc, newDoc *loadsvc.TailDoc, threshold float64) ([]string, error) {
	if oldDoc.Schema != loadsvc.TailSchema || newDoc.Schema != loadsvc.TailSchema {
		return nil, fmt.Errorf("schema is %q (old) and %q (new), both must be %q",
			oldDoc.Schema, newDoc.Schema, loadsvc.TailSchema)
	}
	fmt.Fprintln(w, "== tail-latency trajectory (open-loop, µs; /max reported but not gated) ==")
	fmt.Fprintf(w, "%-36s %12s %12s %9s\n", "name", "old µs", "new µs", "delta")
	oldByName := map[string]float64{}
	for _, r := range oldDoc.Tail {
		oldByName[r.Name] = r.Us
	}
	var regressions []string
	common := 0
	for _, nr := range newDoc.Tail {
		ov, ok := oldByName[nr.Name]
		if !ok {
			fmt.Fprintf(w, "%-36s %12s %12.1f %9s\n", nr.Name, "-", nr.Us, "new")
			continue
		}
		delete(oldByName, nr.Name)
		common++
		delta := "~"
		if ov != 0 {
			pct := 100 * (nr.Us - ov) / ov
			delta = fmt.Sprintf("%+.1f%%", pct)
			if threshold > 0 && pct > threshold && !strings.HasSuffix(nr.Name, "/max") {
				regressions = append(regressions, fmt.Sprintf(
					"%s: %.1f -> %.1f µs (%+.1f%% > +%.1f%%)",
					nr.Name, ov, nr.Us, pct, threshold))
			}
		}
		fmt.Fprintf(w, "%-36s %12.1f %12.1f %9s\n", nr.Name, ov, nr.Us, delta)
	}
	// Sorted, so the leftover report is deterministic across runs (the
	// artifact is diffed textually).
	for _, name := range slices.Sorted(maps.Keys(oldByName)) {
		fmt.Fprintf(w, "%-36s %12.1f %12s %9s\n", name, oldByName[name], "-", "removed")
	}
	if common == 0 {
		return nil, errors.New("the two documents have no row in common")
	}
	return regressions, nil
}
