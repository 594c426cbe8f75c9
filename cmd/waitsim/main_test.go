package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestHist drives the -hist hook, which no registry test reaches: with the
// profiles experiment selected it appends one histogram per profile, and
// without it the flag is a usage error, not a silent no-op.
func TestHist(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		code   int
		stdout string // substring the standard output must contain
		stderr string // substring the error output must contain
	}{
		{[]string{"-exp", "profiles", "-hist"}, 0, "== fig4.11 mutex waits (CountNet) ==\n", ""},
		{[]string{"-exp", "table4.1,profiles", "-hist"}, 0, "== fig4.6 j-structure readers (Jacobi-Jstr) ==\n", ""},
		{[]string{"-exp", "table4.1", "-hist"}, 2, "total (B)", "-hist"},
		{[]string{"-exp", "table4.1"}, 0, "total (B)", ""},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != tc.code {
			t.Errorf("%v: exit code %d, want %d (stderr: %s)", tc.args, code, tc.code, stderr.String())
		}
		if !strings.Contains(stdout.String(), tc.stdout) {
			t.Errorf("%v: stdout lacks %q:\n%s", tc.args, tc.stdout, stdout.String())
		}
		if !strings.Contains(stderr.String(), tc.stderr) || (tc.stderr == "" && stderr.Len() > 0) {
			t.Errorf("%v: stderr %q, want it to contain %q", tc.args, stderr.String(), tc.stderr)
		}
	}
}
