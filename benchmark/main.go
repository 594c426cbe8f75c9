// Command benchmark is the repository's benchmark: three contention-regime
// workloads, each running the native primitives against their static
// analogues, the loadsvc service, and the simulator's figures at that
// regime's contention level. See README.md in this directory.
//
// The benchmark is its own module (the repository is wired in through a
// replace directive), so it is run from here:
//
//	go run -C benchmark . -workload all -seed 1
//	bash benchmark/run.sh --workload uncontended --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"syscall"
	"time"
)

// Shares of -seconds an untraced run gives to the primitive cells, the
// service and the simulator. A simulator pass is fixed work, so its share
// is a budget that decides how many rounds get one.
const (
	primShare = 0.38
	svcShare  = 0.27
	simShare  = 0.30

	rounds = 8 // recorded rounds; one more, unrecorded, comes first
	simMin = 3 // simulator passes made whatever the budget

	// Set-up is repeated and its median reported: at least setupReps
	// times, and until it has had setupShare of the run (a millisecond
	// set-up needs many repetitions to give a steady median), at most
	// setupMaxReps times.
	setupReps    = 9
	setupMaxReps = 99
	setupShare   = 0.02
)

type env struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit,omitempty"`
}

func readEnv() env {
	e := env{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	return e
}

// runRecord is what -json stores for one run; -agree reads these back.
type runRecord struct {
	Workload   string             `json:"workload"`
	Seed       uint64             `json:"seed"`
	Seconds    int                `json:"seconds"`
	Trace      int                `json:"trace"`
	Env        env                `json:"env"`
	Correct    bool               `json:"correct"`
	Attempted  uint64             `json:"attempted"`
	Failed     uint64             `json:"failed"`
	Metrics    map[string]value   `json:"metrics"`
	Control    summary            `json:"control_ns_op"`          // raw, over the rounds
	HostFactor float64            `json:"host_factor"`            // reference host's control ÷ this run's
	Spread     map[string]summary `json:"slice_spread,omitempty"` // over slices, at the reference host's speed
	Prims      []primResult       `json:"primitives,omitempty"`
	Service    *svcResult         `json:"service,omitempty"`
	Sim        *simResult         `json:"simulator,omitempty"`
}

// resultLine is the contract's last line of standard output.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted uint64           `json:"attempted"`
	Failed    uint64           `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// built is everything set-up produces for one run.
type built struct {
	g     int
	cells []*cell
	svc   *svcPhase
}

// setUp draws every input from the seed, builds what the phases run on —
// op streams, primitives, seeded maps, the service with its routing table
// — and warms each up with one pass over its stream, so lazily built state
// (per-P cells, shard arrays) exists before anything is timed. The work is
// fixed by the stream length, so the time it takes is a measurement. The
// simulator builds its machines inside Spec.Run; its set-up is part of
// sim_host_s.
func setUp(rg regime, seed uint64) built {
	g := rg.goroutines(runtime.GOMAXPROCS(0))
	b := built{g: g, cells: buildCells(rg, seed, g), svc: newSvcPhase(seed, g, rg.svc)}
	for _, c := range b.cells {
		for _, im := range c.impls {
			runSlice(g, 0, nil, func(id int, _ time.Time, _ *workerTrace) uint64 {
				im.batch(id, c.streams[id])
				return streamLen
			})
		}
	}
	b.svc.warm()
	return b
}

func timedSetUp(rg regime, seed uint64, seconds int) (built, float64) {
	var b built
	var times []float64
	budget, spent := setupShare*float64(seconds), 0.0
	for len(times) < setupReps || (spent < budget && len(times) < setupMaxReps) {
		runtime.GC()
		t0 := time.Now()
		b = setUp(rg, seed)
		d := time.Since(t0).Seconds()
		times = append(times, d)
		spent += d
	}
	return b, median(times)
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// sliceLen is one of parts equal slices of a share of the run.
func sliceLen(seconds int, share float64, parts int) time.Duration {
	return time.Duration(float64(seconds) * share / float64(parts) * float64(time.Second))
}

// runEndToEnd is the untraced run: it measures every end-to-end metric.
func runEndToEnd(rg regime, seed uint64, seconds int) (runRecord, error) {
	rec := runRecord{Workload: rg.name, Seed: seed, Seconds: seconds, Env: readEnv()}
	var tl tally
	b, setupS := timedSetUp(rg, seed, seconds)

	res, err := runRounds(rg, seed, b, plan{
		rounds:    rounds,
		primSlice: sliceLen(seconds, primShare, (rounds+1)*implSlices(b.cells)),
		svcSlice:  sliceLen(seconds, svcShare, rounds+1),
		simBudget: sliceLen(seconds, simShare, 1),
		simMin:    simMin,
	}, nil, &tl)
	if err != nil {
		return rec, err
	}
	prims, svc, sim := res.prims, res.svc, res.sim

	// Every time is restated at the reference host's speed: multiplied by
	// what the control costs there over what it cost during this run.
	// Ratios and memory are not times and stay as measured.
	f := controlNominalNs / res.control.Mid
	rec.Control, rec.HostFactor = res.control, f
	rec.Spread = map[string]summary{
		"svc_req_per_s": svc.ReqPerS.scaled(1 / f),
		"svc_p50_ns":    svc.P50.scaled(f),
		"sim_host_s":    sim.HostS.scaled(f),
	}
	got := map[string]float64{
		"setup_s":                     setupS * f,
		"peak_rss_mb":                 peakRSSMB(),
		"sim_reactive_vs_best_static": sim.VsStatic,
	}
	var ratios []float64
	for _, p := range prims {
		if slices.Contains(sliceMetrics, p.Prim+"_ns_op") {
			rec.Spread[p.Prim+"_ns_op"] = p.Impls[0].NsOp.scaled(f)
		}
		ratios = append(ratios, p.VsStatic)
	}
	for name, s := range rec.Spread {
		got[name] = s.Mid
	}
	got["vs_static_geomean"], _ = geomean(ratios)

	var missing []string
	rec.Metrics, missing = report(endToEnd, got)
	if len(missing) > 0 {
		return rec, fmt.Errorf("harness bug: no value for %v", missing)
	}
	rec.Prims, rec.Service, rec.Sim = prims, &svc, &sim
	rec.Attempted, rec.Failed, rec.Correct = tl.attempted, tl.failed, tl.failed == 0
	return rec, nil
}

func (rec runRecord) print() {
	fmt.Printf("== %s  seed %d  %d s  trace %d  (nproc %d, GOMAXPROCS %d, %s) ==\n",
		rec.Workload, rec.Seed, rec.Seconds, rec.Trace, rec.Env.NumCPU, rec.Env.GOMAXPROCS, rec.Env.GoVersion)
	for _, p := range rec.Prims {
		fmt.Printf("  %-8s", p.Prim)
		for _, im := range p.Impls {
			fmt.Printf("  %s %.1f [%.1f-%.1f]", im.Name, im.NsOp.Mid, im.NsOp.Q1, im.NsOp.Q3)
		}
		fmt.Printf("  ns/op over %d slices; vs %s %.2fx; %.0f switches/s, mode %v\n",
			p.Impls[0].NsOp.N, p.BestStatic, p.VsStatic, p.SwitchesPS, p.FinalMode)
	}
	if s := rec.Service; s != nil {
		fmt.Printf("  service   %.0f req/s [%.0f-%.0f]; p50 %.0f ns, p99 %.0f ns over %d slices of ~%d samples; degraded %.4f\n",
			s.ReqPerS.Mid, s.ReqPerS.Q1, s.ReqPerS.Q3, s.P50.Mid, s.P99.Mid, s.ReqPerS.N, s.Samples, s.Degraded)
	}
	if rec.HostFactor != 0 {
		fmt.Printf("  control   %.2f ns/op [%.2f-%.2f] over %d slices; times below are multiplied by %.2f / %.2f = %.3f\n",
			rec.Control.Mid, rec.Control.Q1, rec.Control.Q3, rec.Control.N, controlNominalNs, rec.Control.Mid, rec.HostFactor)
	}
	if s := rec.Sim; s != nil {
		fmt.Printf("  simulator %.3f host s [%.3f-%.3f] over %d passes; reactive/best static %.3f over %d cells; digest %s ok=%v committed=%v\n",
			s.HostS.Mid, s.HostS.Q1, s.HostS.Q3, s.Reps, s.VsStatic, s.VsStaticN, s.Digest[:16], s.DigestOK, s.DigestKnown)
	}
	defs := endToEnd
	if rec.Trace != 0 {
		defs = perLayer()
	}
	for _, d := range defs {
		fmt.Printf("  %-44s %14.4f %s\n", d.name, rec.Metrics[d.name].Value, d.unit)
	}
	fmt.Printf("  attempted %d, failed %d, correct %v\n", rec.Attempted, rec.Failed, rec.Correct)
}

func (rec runRecord) printLine() error {
	b, err := json.Marshal(resultLine{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(b))
	return err
}

// appendRecords adds records to the JSON array in path, creating it.
func appendRecords(path string, recs []runRecord) error {
	var all []runRecord
	if b, err := os.ReadFile(path); err == nil && len(b) > 0 {
		if err := json.Unmarshal(b, &all); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	return writeJSONFile(path, append(all, recs...))
}

func selectRegimes(name string) ([]regime, error) {
	if name == "all" {
		return regimes, nil
	}
	for _, rg := range regimes {
		if rg.name == name {
			return []regime{rg}, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func runOne(rg regime, seed uint64, seconds, trace int, traceOut string) (runRecord, error) {
	if trace == 0 {
		return runEndToEnd(rg, seed, seconds)
	}
	return runLayers(rg, seed, seconds, traceOut)
}

func run() error {
	workload := flag.String("workload", "all", "workload name, or all")
	seed := flag.Uint64("seed", 1, "derives every op stream, key sequence and the simulator's base seed")
	seconds := flag.Int("seconds", 36, "length of one run's measurement (BENCHMARK.json's run_seconds)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer rows and spans, a separate run")
	traceOut := flag.String("trace-out", "", "with -trace 1: write the spans and their self times to this file")
	jsonOut := flag.String("json", "", "append this run's records to a JSON file (the input of -agree)")
	agree := flag.Bool("agree", false, "compare two -json result sets named as arguments against BENCHMARK.json's bounds")
	agreeRuns := flag.Int("agree-runs", 0, "run the workload this many times for each of two sets, alternating, then compare them")
	bounds := flag.String("bounds", "", "path of BENCHMARK.json (default: ./BENCHMARK.json, then ../BENCHMARK.json)")
	list := flag.Bool("list", false, "print the workloads and every metric's name and unit, then exit")
	flag.Parse()

	if *list {
		for _, rg := range regimes {
			fmt.Printf("workload\t%s\t%s\n", rg.name, rg.why)
		}
		for _, d := range endToEnd {
			fmt.Printf("end_to_end\t%s\t%s\n", d.name, d.unit)
		}
		for _, d := range perLayer() {
			fmt.Printf("per_layer\t%s\t%s\n", d.name, d.unit)
		}
		return nil
	}

	if *seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	if *agree {
		if flag.NArg() != 2 {
			return fmt.Errorf("-agree takes two result files")
		}
		return agreeFiles(*bounds, flag.Arg(0), flag.Arg(1))
	}
	rgs, err := selectRegimes(*workload)
	if err != nil {
		return err
	}
	if *agreeRuns > 0 {
		return agreeRunsOf(*bounds, rgs, *agreeRuns, *seconds)
	}
	var recs []runRecord
	failed := false
	for _, rg := range rgs {
		rec, err := runOne(rg, *seed, *seconds, *trace, *traceOut)
		if err != nil {
			return err
		}
		rec.print()
		recs = append(recs, rec)
		failed = failed || !rec.Correct
	}
	if *jsonOut != "" {
		if err := appendRecords(*jsonOut, recs); err != nil {
			return err
		}
	}
	for _, rec := range recs {
		if err := rec.printLine(); err != nil {
			return err
		}
	}
	if failed {
		return fmt.Errorf("wrong results: see FAILED lines above")
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
