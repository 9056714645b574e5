package main

import (
	"os"
	"testing"
)

// TestRunExitCodes pins the exit-code contract CI branches on: 0 clean,
// 1 findings, 2 usage or load failure.
func TestRunExitCodes(t *testing.T) {
	// Findings and the rule table render straight to os.Stdout; keep
	// the test log readable. Diagnostics still reach os.Stderr.
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	//lint:ignore errdrop test teardown of the /dev/null handle
	defer devnull.Close()
	stdout := os.Stdout
	os.Stdout = devnull
	defer func() { os.Stdout = stdout }()

	const fixture = "../../internal/lint/testdata/src/floatcmp"
	tests := []struct {
		name string
		argv []string
		want int
	}{
		{"list", []string{"-list"}, 0},
		{"fixture has findings", []string{fixture}, 1},
		{"fixture as json", []string{"-json", fixture}, 1},
		{"two packages", []string{fixture, fixture}, 2},
		{"missing package dir", []string{"no/such/dir"}, 2},
		{"unknown flag", []string{"-no-such-flag"}, 2},
		{"no changed mode", []string{"-changed"}, 2},
		{"no rule subsets", []string{"-rules", "detflow"}, 2},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := run(tc.argv); got != tc.want {
				t.Fatalf("run(%v) = %d, want %d", tc.argv, got, tc.want)
			}
		})
	}
}
