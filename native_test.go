package repro_test

import (
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/reactive"
)

// nativeCite matches a BenchmarkNative<Prim> or BenchmarkNative<Prim>/<row>
// citation in the docs; BenchmarkNative* (the group) does not match.
var nativeCite = regexp.MustCompile(`BenchmarkNative([A-Za-z]+)(/[A-Za-z0-9._/-]+)?`)

// nativeRun matches a BenchmarkNative<Prim> function's call to the runner.
var nativeRun = regexp.MustCompile(`runNative\(b, "([A-Za-z]+)"\)`)

// TestNativeRowsInSync keeps nativeRows and its readers in step without
// running a benchmark: no primitive repeats a row name (testing would
// suffix the second b.Run with #01 and benchstat would pair the wrong
// rows), every primitive in the table is run by a BenchmarkNative<Prim>
// and every one of those has rows, and every row the docs cite exists —
// README's perf table drops the /reactive suffix, so either form counts.
func TestNativeRowsInSync(t *testing.T) {
	rows := map[string]map[string]bool{}
	for _, r := range nativeRows {
		if rows[r.prim] == nil {
			rows[r.prim] = map[string]bool{}
		}
		if rows[r.prim][r.name] {
			t.Errorf("BenchmarkNative%s/%s is in nativeRows twice", r.prim, r.name)
		}
		rows[r.prim][r.name] = true
	}

	src, err := os.ReadFile("bench_test.go")
	if err != nil {
		t.Fatal(err)
	}
	run := map[string]bool{}
	for _, m := range nativeRun.FindAllStringSubmatch(string(src), -1) {
		run[m[1]] = true
		if rows[m[1]] == nil {
			t.Errorf("BenchmarkNative%s runs no row of nativeRows", m[1])
		}
	}
	for prim := range rows {
		if !run[prim] {
			t.Errorf("nativeRows has %s rows but no BenchmarkNative%s runs them", prim, prim)
		}
	}

	for _, doc := range []string{"README.md", "EXPERIMENTS.md", "DESIGN.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range nativeCite.FindAllStringSubmatch(string(text), -1) {
			prim, name := m[1], strings.TrimSuffix(strings.TrimPrefix(m[2], "/"), ".")
			switch {
			case rows[prim] == nil:
				t.Errorf("%s cites %s, but nativeRows has no %s rows", doc, m[0], prim)
			case name != "" && !rows[prim][name] && !rows[prim][name+"/reactive"]:
				t.Errorf("%s cites %s, which is not a row of nativeRows", doc, m[0])
			}
		}
	}
}

// TestNativeMapRowsShardAtRowProcs prepares the forced read-4x Map rows
// the way runNative does and checks that the map sized its shard array
// (and with it the epoch kernel's cells) for the row's 4 Ps, not for
// the host's GOMAXPROCS: built before the raise, four Ps would share
// the cells of two on a 2-P host.
func TestNativeMapRowsShardAtRowProcs(t *testing.T) {
	for _, name := range []string{"read-4x-sharded-forced/reactive", "read-4x-epoch-forced/reactive"} {
		found := false
		for _, r := range nativeRows {
			if r.prim != "Map" || r.name != name {
				continue
			}
			found = true
			_, p, restore := r.prepare()
			shards := p.(*reactive.Map[uint64, uint64]).MapStats().Shards
			restore()
			if shards < 4 {
				t.Errorf("BenchmarkNativeMap/%s: %d shards for a row at 4-way parallelism", name, shards)
			}
		}
		if !found {
			t.Errorf("BenchmarkNativeMap/%s is not in nativeRows", name)
		}
	}
}
