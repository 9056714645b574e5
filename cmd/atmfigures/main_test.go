package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunExitCodes pins the exit-code contract: 0 success, 1 hard
// failure, 2 usage. A negative -workers or an unknown -id is a usage
// error naming the flag; 0 still selects the default pool, and an
// extension ID runs without -ext.
func TestRunExitCodes(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want int
		// stderr, when set, must appear in the diagnostic.
		stderr string
	}{
		{"list", []string{"-list"}, 0, ""},
		{"list default workers", []string{"-list", "-workers", "0"}, 0, ""},
		{"negative workers", []string{"-workers", "-1"}, 2, "-workers -1"},
		{"negative workers with list", []string{"-list", "-workers", "-4"}, 2, "-workers -4"},
		{"unknown flag", []string{"-no-such-flag"}, 2, "no-such-flag"},
		{"help", []string{"-h"}, 0, ""},
		{"unknown artifact", []string{"-id", "bogus"}, 2, "-id bogus"},
		{"extension artifact without -ext", []string{"-id", "ext-droop-sync"}, 0, ""},
	} {
		var stdout, stderr bytes.Buffer
		if got := run(tc.args, &stdout, &stderr); got != tc.want {
			t.Errorf("%s: exit %d, want %d (stderr %q)", tc.name, got, tc.want, stderr.String())
		}
		if !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("%s: stderr %q does not name %q", tc.name, stderr.String(), tc.stderr)
		}
		if tc.want == 2 && stdout.Len() != 0 {
			t.Errorf("%s: usage error printed %q to stdout", tc.name, stdout.String())
		}
	}
}
