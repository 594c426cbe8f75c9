package expcli

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/stats"
)

// testRegistry holds one passing spec per tool and one that panics, which
// the runner reports as that spec's error.
func testRegistry() *experiments.Registry {
	table := func(cell string) func(experiments.Sizes) *stats.Table {
		return func(experiments.Sizes) *stats.Table {
			t := &stats.Table{Header: []string{"cell"}}
			t.AddRow(cell)
			return t
		}
	}
	reg := experiments.NewRegistry()
	reg.Register(experiments.Spec{Name: "react-ok", Figure: "Figure R", Title: "react table",
		Tool: experiments.ToolReactsim, Groups: []string{"quick"}, Run: table("r1")})
	reg.Register(experiments.Spec{Name: "wait-ok", Figure: "Table W", Title: "wait table",
		Tool: experiments.ToolWaitsim, Groups: []string{"quick"}, Run: table("w1")})
	reg.Register(experiments.Spec{Name: "react-broken", Figure: "Figure B", Title: "broken table",
		Tool: experiments.ToolReactsim, Run: func(experiments.Sizes) *stats.Table { panic("spec exploded") }})
	return reg
}

func TestMainCommand(t *testing.T) {
	// hookRan counts runs of the ExtraFlags hook within one case; the hook
	// also proves it sees its own flag and the selection's results.
	var hookRan int
	extra := func(fs *flag.FlagSet) func(io.Writer, experiments.Sizes, []experiments.Result) error {
		note := fs.String("note", "", "test-only flag")
		return func(w io.Writer, _ experiments.Sizes, results []experiments.Result) error {
			hookRan++
			_, err := fmt.Fprintf(w, "hook note=%s results=%d\n", *note, len(results))
			return err
		}
	}
	cases := []struct {
		name      string
		tool      string
		args      []string
		code      int
		stdout    []string // substrings the standard output must contain
		notStdout []string // and must not
		stderr    string   // substring the error output must contain
		hook      int      // times the ExtraFlags hook must have run
		jsonSeed  uint64   // non-zero: stdout is a JSON document of wait-ok run at this base seed
	}{
		{name: "unknown experiment", tool: experiments.ToolReactsim, args: []string{"-exp", "no-such"},
			code: 2, stderr: "no-such"},
		{name: "other tool's experiment", tool: experiments.ToolReactsim, args: []string{"-exp", "wait-ok"},
			code: 2, stderr: "wait-ok"},
		{name: "unknown flag", tool: experiments.ToolReactsim, args: []string{"-bogus"}, code: 2, stderr: "bogus"},
		{name: "failing spec", tool: experiments.ToolReactsim, args: []string{"-exp", "react-ok,react-broken"},
			code: 1, stdout: []string{"== react table ==", "r1", "ERROR"}, stderr: "spec exploded", hook: 1},
		{name: "list filtered by tool", tool: experiments.ToolWaitsim, args: []string{"-list"},
			code: 0, stdout: []string{"NAME", "wait-ok", "Table W", "quick"}, notStdout: []string{"react-ok", "react-broken"}},
		{name: "list of the whole matrix", tool: "", args: []string{"-list"},
			code: 0, stdout: []string{"wait-ok", "react-ok", "react-broken"}},
		{name: "group selects within the tool", tool: experiments.ToolReactsim, args: []string{"-exp", "quick"},
			code: 0, stdout: []string{"== react table =="}, notStdout: []string{"wait table"}, hook: 1},
		{name: "text mode runs the hook with its flag", tool: experiments.ToolWaitsim, args: []string{"-exp", "wait-ok", "-note", "hi"},
			code: 0, stdout: []string{"== wait table ==", "w1", "hook note=hi results=1"}, hook: 1},
		{name: "json records the seed and skips the hook", tool: experiments.ToolWaitsim,
			args: []string{"-exp", "wait-ok", "-json", "-seed", "77", "-note", "hi"},
			code: 0, notStdout: []string{"hook"}, jsonSeed: 77},
		{name: "csv skips the hook", tool: experiments.ToolWaitsim, args: []string{"-exp", "wait-ok", "-csv"},
			code: 0, stdout: []string{"wait-ok,header,cell", "wait-ok,row,w1"}, notStdout: []string{"hook"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			hookRan = 0
			var stdout, stderr bytes.Buffer
			code := Main(Config{Tool: tc.tool, Registry: testRegistry(), ExtraFlags: extra}, tc.args, &stdout, &stderr)
			if code != tc.code {
				t.Errorf("exit code %d, want %d (stderr: %s)", code, tc.code, stderr.String())
			}
			for _, want := range tc.stdout {
				if !strings.Contains(stdout.String(), want) {
					t.Errorf("stdout lacks %q:\n%s", want, stdout.String())
				}
			}
			for _, not := range tc.notStdout {
				if strings.Contains(stdout.String(), not) {
					t.Errorf("stdout contains %q:\n%s", not, stdout.String())
				}
			}
			if !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("stderr lacks %q:\n%s", tc.stderr, stderr.String())
			}
			if hookRan != tc.hook {
				t.Errorf("ExtraFlags hook ran %d times, want %d", hookRan, tc.hook)
			}
			if tc.jsonSeed == 0 {
				return
			}
			var doc struct {
				Params  struct{ Seed uint64 }
				Results []struct {
					Name  string
					Seed  uint64
					Table *stats.Table
				}
			}
			if err := json.Unmarshal(stdout.Bytes(), &doc); err != nil {
				t.Fatalf("-json output does not parse: %v\n%s", err, stdout.String())
			}
			if doc.Params.Seed != tc.jsonSeed {
				t.Errorf("params record seed %d, want %d", doc.Params.Seed, tc.jsonSeed)
			}
			if len(doc.Results) != 1 || doc.Results[0].Name != "wait-ok" || doc.Results[0].Table == nil {
				t.Fatalf("results = %+v, want one wait-ok with a table", doc.Results)
			}
			if want := experiments.ExperimentSeed(tc.jsonSeed, "wait-ok"); doc.Results[0].Seed != want {
				t.Errorf("result records seed %d, want the experiment's derived seed %d", doc.Results[0].Seed, want)
			}
		})
	}
}
