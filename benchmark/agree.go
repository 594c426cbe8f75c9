package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// benchSpec is BENCHMARK.json: the contract the driver checks and the
// place the end-to-end bounds are fixed.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []boundedMetric `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadSpec reads BENCHMARK.json from path, or from the checkout root
// whether the command runs there or in benchmark/.
func loadSpec(path string) (benchSpec, error) {
	candidates := []string{path}
	if path == "" {
		candidates = []string{"BENCHMARK.json", "../BENCHMARK.json"}
	}
	var spec benchSpec
	var err error
	for _, c := range candidates {
		var b []byte
		if b, err = os.ReadFile(c); err == nil {
			if err = json.Unmarshal(b, &spec); err != nil {
				return spec, fmt.Errorf("%s: %w", c, err)
			}
			return spec, nil
		}
	}
	return spec, err
}

type verdict string

const (
	within     verdict = "within"
	outside    verdict = "outside"
	unresolved verdict = "unresolved"
)

// agreement is one metric of one workload compared across two result sets.
type agreement struct {
	Workload, Metric string
	A, B             summary // over the set's runs; over a single run's slices when the set has one run
	WorsePct         float64 // how much worse B's median is than A's, in percent of A's; negative is better
	SpreadPct        float64 // the wider of the two sets' IQRs, in percent of its median
	BoundPct         float64
	Verdict          verdict
}

// judge compares two sets of values of one metric against its bound. A
// spread wider than the bound cannot resolve a difference of the bound's
// size, so it is reported as unresolved, never as agreement.
func judge(m boundedMetric, a, b summary) agreement {
	ag := agreement{Metric: m.Name, A: a, B: b, BoundPct: 100 * m.Bound}
	if a.Median != 0 {
		ag.WorsePct = 100 * (b.Median - a.Median) / a.Median
		if m.Better == "higher" {
			ag.WorsePct = -ag.WorsePct
		}
	}
	ag.SpreadPct = max(a.iqrPct(), b.iqrPct())
	switch {
	case ag.SpreadPct > ag.BoundPct:
		ag.Verdict = unresolved
	case ag.WorsePct > ag.BoundPct:
		ag.Verdict = outside
	default:
		ag.Verdict = within
	}
	return ag
}

// setSummary is a metric's median and quartiles over a set's runs of one
// workload. A set with a single run falls back on that run's own spread
// over slices, where the metric has one.
func setSummary(recs []runRecord, workload, metric string) (summary, bool) {
	var xs []float64
	var only runRecord
	for _, r := range recs {
		if r.Workload == workload && r.Trace == 0 {
			if v, ok := r.Metrics[metric]; ok {
				xs = append(xs, v.Value)
				only = r
			}
		}
	}
	if len(xs) == 0 {
		return summary{}, false
	}
	if len(xs) == 1 {
		if s, ok := only.Spread[metric]; ok {
			s.Median = xs[0] // the value the run reported (a midmean), with its slices' quartiles
			return s, true
		}
	}
	return summarize(xs), true
}

func compareSets(spec benchSpec, a, b []runRecord) []agreement {
	var out []agreement
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			sa, okA := setSummary(a, w.Name, m.Name)
			sb, okB := setSummary(b, w.Name, m.Name)
			if !okA || !okB {
				continue
			}
			ag := judge(m, sa, sb)
			ag.Workload = w.Name
			out = append(out, ag)
		}
	}
	return out
}

func printAgreement(ags []agreement) error {
	if len(ags) == 0 {
		return fmt.Errorf("the two result sets share no workload")
	}
	bad := 0
	for _, ag := range ags {
		fmt.Printf("%-22s %-28s A %14.4f (n=%d)  B %14.4f (n=%d)  worse %+6.2f%%  spread %5.2f%%  bound %4.1f%%  %s\n",
			ag.Workload, ag.Metric, ag.A.Median, ag.A.N, ag.B.Median, ag.B.N, ag.WorsePct, ag.SpreadPct, ag.BoundPct, ag.Verdict)
		if ag.Verdict == outside {
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d metrics outside their bounds", bad)
	}
	return nil
}

func readRecords(path string) ([]runRecord, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []runRecord
	if err := json.Unmarshal(b, &recs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}

// agreeFiles compares two -json result files.
func agreeFiles(bounds, pathA, pathB string) error {
	spec, err := loadSpec(bounds)
	if err != nil {
		return err
	}
	a, err := readRecords(pathA)
	if err != nil {
		return err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return err
	}
	return printAgreement(compareSets(spec, a, b))
}

// agreeRunsOf makes two sets of n runs of each workload itself, alternating
// which set runs first, and compares them: the same commit must agree with
// itself within the bounds before the bounds can judge anything else.
func agreeRunsOf(bounds string, rgs []regime, n, seconds int) error {
	spec, err := loadSpec(bounds)
	if err != nil {
		return err
	}
	var sets [2][]runRecord
	for i := 0; i < n; i++ {
		for _, rg := range rgs {
			for k := 0; k < 2; k++ {
				set := (i + k) % 2
				rec, err := runEndToEnd(rg, uint64(1+i), seconds)
				if err != nil {
					return err
				}
				if !rec.Correct {
					return fmt.Errorf("%s seed %d: wrong results", rg.name, 1+i)
				}
				fmt.Fprintf(os.Stderr, "set %c: %s seed %d done\n", 'A'+set, rg.name, 1+i)
				sets[set] = append(sets[set], rec)
			}
		}
	}
	return printAgreement(compareSets(spec, sets[0], sets[1]))
}
