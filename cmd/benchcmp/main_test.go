package main

import (
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/loadsvc"
)

func tailDoc(rows ...loadsvc.TailRow) *loadsvc.TailDoc {
	return &loadsvc.TailDoc{Schema: loadsvc.TailSchema, Tail: rows}
}

func TestCompareTail(t *testing.T) {
	base := tailDoc(
		loadsvc.TailRow{Name: "s/p50", Us: 100},
		loadsvc.TailRow{Name: "s/p99", Us: 1000},
		loadsvc.TailRow{Name: "s/max", Us: 5000},
		loadsvc.TailRow{Name: "s/procs=8/p99", Us: 900},
	)
	fresh := tailDoc(
		loadsvc.TailRow{Name: "s/p50", Us: 110},           // +10 %: under
		loadsvc.TailRow{Name: "s/p99", Us: 1300},          // +30 %: over
		loadsvc.TailRow{Name: "s/max", Us: 20000},         // +300 %, never gated
		loadsvc.TailRow{Name: "s/procs=16/p99", Us: 9000}, // another host's rung
	)
	committed, err := load(filepath.Join("..", "..", "bench_tail_baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		old, new  *loadsvc.TailDoc
		threshold float64
		listed    []string          // row names in the returned regressions, in order
		printed   map[string]string // row name -> its delta column in the report
		wantErr   bool
	}{
		{name: "p99 over and p50 under the threshold", old: base, new: fresh, threshold: 25,
			listed: []string{"s/p99"},
			printed: map[string]string{"s/p50": "+10.0%", "s/p99": "+30.0%", "s/max": "+300.0%",
				"s/procs=16/p99": "new", "s/procs=8/p99": "removed"}},
		{name: "threshold 0 lists nothing", old: base, new: fresh, threshold: 0,
			printed: map[string]string{"s/p99": "+30.0%"}},
		{name: "committed baseline against itself", old: committed, new: committed, threshold: 25,
			printed: map[string]string{"read-heavy/p99": "+0.0%"}},
		{name: "new side is not a tail document", old: base, new: &loadsvc.TailDoc{}, wantErr: true},
		{name: "old side has another schema", old: &loadsvc.TailDoc{Schema: "bench_tail/v0", Tail: base.Tail}, new: base, wantErr: true},
		{name: "no row in common", old: base, new: tailDoc(loadsvc.TailRow{Name: "t/p99", Us: 1}), threshold: 25, wantErr: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			regressions, err := compareTail(&out, tc.old, tc.new, tc.threshold)
			if (err != nil) != tc.wantErr {
				t.Fatalf("err = %v, want error: %v", err, tc.wantErr)
			}
			var listed []string
			for _, r := range regressions {
				name, _, _ := strings.Cut(r, ":")
				listed = append(listed, name)
			}
			if !slices.Equal(listed, tc.listed) {
				t.Errorf("regressions %q, want rows %q", regressions, tc.listed)
			}
			delta := map[string]string{}
			for _, line := range strings.Split(out.String(), "\n") {
				if f := strings.Fields(line); len(f) > 0 {
					delta[f[0]] = f[len(f)-1]
				}
			}
			for row, want := range tc.printed {
				if delta[row] != want {
					t.Errorf("row %s reads %q, want %q:\n%s", row, delta[row], want, out.String())
				}
			}
		})
	}
}
