// Command lockstat runs the baseline contention loop for a single lock or
// fetch-and-op protocol across one or more contention levels and prints
// detailed statistics: per-operation cycles, protocol changes, and
// memory-system counters. It is the tuning tool Section 3.7.2 prescribes
// for profiling component protocols on a new machine before configuring a
// reactive algorithm's switching policy. The protocol catalog, the
// Section 3.5.1 contention loop and the parallel sweep come from the
// shared experiment harness, so lockstat accepts the same protocol names
// and runs the same loop as the figures it tunes for.
//
// Usage:
//
//	lockstat -list
//	lockstat -kind lock -proto reactive -procs 16 -iters 200
//	lockstat -kind lock -proto mcs-queue -procs 1,2,4,8,16,32 -parallel 6
//	lockstat -kind fop  -proto combining-tree -procs 64 -json
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/stats"
)

func main() {
	kind := flag.String("kind", "lock", "object kind: lock or fop")
	proto := flag.String("proto", "reactive", "protocol name (see -list)")
	procsFlag := flag.String("procs", "16", "comma-separated contention levels to sweep")
	machineProcs := flag.Int("machine", 64, "machine size in processors")
	iters := flag.Int("iters", 100, "operations per processor")
	cs := flag.Uint64("cs", 100, "critical-section length in cycles (lock kind)")
	think := flag.Int("think", 500, "max random think time in cycles")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "max contention levels measured concurrently")
	seed := flag.Uint64("seed", experiments.DefaultSeed, "base seed for the sweep")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON instead of a text table")
	csvOut := flag.Bool("csv", false, "emit flat CSV instead of a text table")
	list := flag.Bool("list", false, "list protocol names, then exit")
	flag.Parse()

	if *list {
		fmt.Printf("lock: %s\n", strings.Join(experiments.LockProtocols(), ", "))
		fmt.Printf("fop:  %s\n", strings.Join(experiments.FopProtocols(), ", "))
		return
	}
	known := experiments.LockProtocols()
	if *kind == "fop" {
		known = experiments.FopProtocols()
	} else if *kind != "lock" {
		fmt.Fprintf(os.Stderr, "unknown kind %q\n", *kind)
		os.Exit(2)
	}
	if !slices.Contains(known, *proto) {
		fmt.Fprintf(os.Stderr, "unknown %s protocol %q (see -list)\n", *kind, *proto)
		os.Exit(2)
	}

	if *iters < 1 {
		fmt.Fprintf(os.Stderr, "bad -iters %d: need at least one operation per processor\n", *iters)
		os.Exit(2)
	}
	var levels []int
	for _, f := range strings.Split(*procsFlag, ",") {
		p, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || p < 1 {
			fmt.Fprintf(os.Stderr, "bad contention level %q\n", f)
			os.Exit(2)
		}
		if p > *machineProcs {
			fmt.Fprintln(os.Stderr, "procs exceeds machine size")
			os.Exit(2)
		}
		levels = append(levels, p)
	}

	// One spec per contention level: the sweep is embarrassingly
	// parallel and each level's seed derives from its spec name, so the
	// table is identical at any -parallel value.
	specs := make([]experiments.Spec, len(levels))
	for i, procs := range levels {
		procs := procs
		specs[i] = experiments.Spec{
			Name:   fmt.Sprintf("lockstat/%s/%s/p%d", *kind, *proto, procs),
			Figure: "Section 3.7.2",
			Title:  fmt.Sprintf("%s/%s at %d contenders", *kind, *proto, procs),
			Tool:   "lockstat",
			Run: func(sz experiments.Sizes) *stats.Table {
				return measure(sz, *kind, *proto, *machineProcs, procs, *iters, *cs, *think)
			},
		}
	}
	runner := experiments.Runner{Parallel: *parallel, BaseSeed: *seed}
	results := runner.Run(specs)

	var err error
	switch {
	case *jsonOut:
		// Record the flag values that shaped the sweep so the document
		// alone suffices to reproduce it.
		params := struct {
			Kind         string `json:"kind"`
			Proto        string `json:"proto"`
			MachineProcs int    `json:"machine_procs"`
			Iters        int    `json:"iters"`
			CS           uint64 `json:"cs_cycles"`
			Think        int    `json:"think_cycles"`
			Levels       []int  `json:"levels"`
			BaseSeed     uint64 `json:"base_seed"`
		}{*kind, *proto, *machineProcs, *iters, *cs, *think, levels, *seed}
		err = experiments.WriteJSON(os.Stdout, params, results)
	case *csvOut:
		err = experiments.WriteCSV(os.Stdout, results)
	default:
		// Merge the one-row level tables into a single sweep table.
		merged := &stats.Table{}
		for _, res := range results {
			if res.Err != nil {
				continue
			}
			merged.Header = res.Table.Header
			merged.Rows = append(merged.Rows, res.Table.Rows...)
		}
		fmt.Printf("protocol  %s/%s on a %d-processor machine, %d ops/processor\n",
			*kind, *proto, *machineProcs, *iters)
		fmt.Print(merged)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := experiments.FirstErr(results); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// measure runs the contention loop at one level and returns a one-row
// table of detailed statistics.
func measure(sz experiments.Sizes, kind, proto string, machineProcs, procs, iters int, cs uint64, think int) *stats.Table {
	m := sz.NewMachine(machineProcs, nil)

	var op func(c *machine.CPU)
	changes := func() uint64 { return 0 }
	switch kind {
	case "lock":
		l := experiments.MakeLock(m, proto, 0)
		if rl, ok := l.(*core.ReactiveLock); ok {
			changes = func() uint64 { return rl.Changes }
		}
		op = func(c *machine.CPU) {
			h := l.Acquire(c)
			c.Advance(cs)
			l.Release(c, h)
		}
	default: // fop
		f := experiments.MakeFop(m, proto, machineProcs)
		if rf, ok := f.(*core.ReactiveFetchOp); ok {
			changes = func() uint64 { return rf.Changes }
		}
		op = func(c *machine.CPU) { f.FetchAdd(c, 1) }
	}
	// A panic from the run is reported by the runner as this level's error.
	end := experiments.ContentionLoop(m, procs, iters, op, func(c *machine.CPU) machine.Time {
		if think <= 0 {
			return 0
		}
		return machine.Time(c.Rand().Intn(think))
	})
	total := uint64(procs) * uint64(iters)
	t := &stats.Table{Header: []string{
		"procs", "elapsed", "cycles/op", "changes",
		"reads", "writes", "rmws", "misses", "invals", "traps",
	}}
	t.AddRow(
		fmt.Sprintf("%d", procs),
		fmt.Sprintf("%d", end),
		fmt.Sprintf("%.1f", float64(end)/float64(total)),
		fmt.Sprintf("%d", changes()),
		fmt.Sprintf("%d", m.Mem.Reads),
		fmt.Sprintf("%d", m.Mem.Writes),
		fmt.Sprintf("%d", m.Mem.RMWs),
		fmt.Sprintf("%d", m.Mem.Misses),
		fmt.Sprintf("%d", m.Mem.Invals),
		fmt.Sprintf("%d", m.Mem.Traps),
	)
	return t
}
