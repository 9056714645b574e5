package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestRunExitCodes pins the exit-code contract scripts and CI branch
// on: 0 success, 1 hard failure, 2 usage (bad flags and flag values,
// fault and ops profile specs included), 3 partial (quarantined cores,
// failed jobs, UNSAFE lifetime verdict).
func TestRunExitCodes(t *testing.T) {
	// The subcommands render straight to os.Stdout; keep the test log
	// readable. Diagnostics still reach os.Stderr.
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	//lint:ignore errdrop test teardown of the /dev/null handle
	defer devnull.Close()
	stdout := os.Stdout
	os.Stdout = devnull
	defer func() { os.Stdout = stdout }()
	unwritable := filepath.Join(t.TempDir(), "missing", "metrics.json")

	tests := []struct {
		name string
		argv []string
		want int
	}{
		{"no args", nil, 2},
		{"unknown subcommand", []string{"frobnicate"}, 2},
		{"bad flag", []string{"status", "-no-such-flag"}, 2},
		{"help", []string{"tune", "-h"}, 2},
		{"status ok", []string{"status"}, 0},
		{"hard failure", []string{"sweep", "-metrics-out", unwritable}, 1},
		{"sweep unknown core", []string{"sweep", "-core", "P9C9"}, 2},
		{"quarantined cores are partial", []string{"tune", "-fault-profile", "broken-core"}, 3},
		{"nan fault probability is hard", []string{"tune", "-fault-profile", "trial-err=NaN"}, 2},
		{"tune unknown fault profile", []string{"tune", "-fault-profile", "bogus"}, 2},
		{"tune removed fault preset", []string{"tune", "-fault-profile", "flaky-fsp"}, 2},
		{"characterize unknown fault profile", []string{"characterize", "-fault-profile", "bogus"}, 2},
		{"characterize removed fault preset", []string{"characterize", "-fault-profile", "noisy-cpm"}, 2},
		{"characterize nan fault probability", []string{"characterize", "-fault-profile", "trial-err=NaN"}, 2},
		{"schedule negative qos is hard", []string{"schedule", "-qos", "-1"}, 2},
		{"schedule nan qos is hard", []string{"schedule", "-qos", "nan"}, 2},
		{"schedule infinite qos is hard", []string{"schedule", "-qos", "inf"}, 2},
		{"schedule zero qos under balanced", []string{"schedule", "-qos", "0"}, 2},
		{"schedule managed-max negative qos", []string{"schedule", "-scenario", "managed-max", "-qos", "-3"}, 2},
		{"schedule managed-max nan qos", []string{"schedule", "-scenario", "managed-max", "-qos", "nan"}, 2},
		{"schedule managed-max zero qos runs", []string{"schedule", "-scenario", "managed-max", "-qos", "0"}, 0},
		{"schedule unknown critical", []string{"schedule", "-critical", "bogus"}, 2},
		{"schedule unknown background", []string{"schedule", "-background", "bogus"}, 2},
		{"schedule memory-intensive pair", []string{"schedule", "-critical", "lu_cb"}, 2},
		{"schedule unknown scenario", []string{"schedule", "-scenario", "bogus"}, 2},
		{"schedule unknown governor", []string{"schedule", "-governor", "bogus"}, 2},
		{"transient zero steps", []string{"transient", "-steps", "0"}, 2},
		{"transient steps above the bound", []string{"transient", "-steps", fmt.Sprint(maxTransientSteps + 1)}, 2},
		{"transient unknown chip", []string{"transient", "-chip", "P7"}, 2},
		{"characterize negative trials", []string{"characterize", "-trials", "-1"}, 2},
		{"tune negative rollback", []string{"tune", "-rollback", "-2"}, 2},
		{"fleet no jobs", []string{"fleet", "-n", "0"}, 2},
		{"fleet negative jobs", []string{"fleet", "-n", "-3"}, 2},
		{"fleet negative rollback", []string{"fleet", "-kind", "tune", "-rollback", "-1"}, 2},
		{"fleet negative trials", []string{"fleet", "-kind", "characterize", "-trials", "-1"}, 2},
		{"fleet zero workers", []string{"fleet", "-n", "1", "-workers", "0"}, 2},
		{"fleet resume is an unknown flag", []string{"fleet", "-n", "1", "-resume"}, 2},
		{"fleet panic-retries is an unknown flag", []string{"fleet", "-n", "1", "-panic-retries", "1"}, 2},
		{"fleet trial-budget is an unknown flag", []string{"fleet", "-n", "1", "-trial-budget", "5"}, 2},
		{"fleet unknown kind", []string{"fleet", "-kind", "bogus"}, 2},
		{"fleet montecarlo fault profile", []string{"fleet", "-kind", "montecarlo", "-fault-profile", "test-floor"}, 2},
		{"fleet tune unknown fault profile", []string{"fleet", "-kind", "tune", "-n", "1", "-fault-profile", "bogus"}, 2},
		{"fleet tune removed fault key", []string{"fleet", "-kind", "tune", "-n", "1", "-fault-profile", "stuck=1"}, 2},
		{"fleet characterize nan fault probability", []string{"fleet", "-kind", "characterize", "-n", "1", "-fault-profile", "trial-err=NaN"}, 2},
		{"fleet tune seed range wraps", []string{"fleet", "-kind", "tune", "-n", "2", "-seed", "18446744073709551615"}, 2},
		{"fleet montecarlo seed range wraps", []string{"fleet", "-kind", "montecarlo", "-n", "2", "-seed", "18446744073709551615"}, 2},
		{"fleet last seed alone runs", []string{"fleet", "-kind", "montecarlo", "-n", "1", "-seed", "18446744073709551615"}, 0},
		{"fleet tune fault-free is ok", []string{"fleet", "-kind", "tune", "-n", "2"}, 0},
		{"fleet tune quarantined cores are partial", []string{"fleet", "-kind", "tune", "-n", "2", "-workers", "1", "-fault-profile", "broken=1"}, 3},
		{"fleet tune json quarantined cores are partial", []string{"fleet", "-kind", "tune", "-n", "2", "-fault-profile", "broken=1", "-json"}, 3},
		{"fleet characterize quarantined cores are partial", []string{"fleet", "-kind", "characterize", "-n", "2", "-trials", "2", "-fault-profile", "broken=1"}, 3},
		{"lifetime safe", []string{"lifetime", "-years", "1"}, 0},
		{"lifetime unsafe is partial", []string{"lifetime", "-years", "3", "-sentinel-off"}, 3},
		{"lifetime negative years", []string{"lifetime", "-years", "-1"}, 2},
		{"lifetime no servers", []string{"lifetime", "-n", "0"}, 2},
		{"lifetime zero years", []string{"lifetime", "-years", "0"}, 2},
		{"lifetime negative workers", []string{"lifetime", "-years", "1", "-workers", "-2"}, 2},
		{"lifetime resume is an unknown flag", []string{"lifetime", "-resume"}, 2},
		{"lifetime seed range wraps", []string{"lifetime", "-years", "1", "-n", "2", "-seed", "18446744073709551615"}, 2},
		{"lifetime silicon range wraps", []string{"lifetime", "-years", "1", "-n", "2", "-silicon-start", "18446744073709551615"}, 2},
		{"lifetime last seed alone runs", []string{"lifetime", "-years", "1", "-n", "1", "-seed", "18446744073709551615"}, 0},
		{"dc ok", []string{"dc", "-racks", "1", "-chassis", "1", "-chips-per-chassis", "2", "-ticks", "8"}, 0},
		{"dc bad flag", []string{"dc", "-no-such-flag"}, 2},
		{"dc negative tenants", []string{"dc", "-tenants", "-5"}, 2},
		{"dc negative racks", []string{"dc", "-racks", "-2"}, 2},
		{"dc negative ticks", []string{"dc", "-ticks", "-5"}, 2},
		{"dc negative rollback", []string{"dc", "-rollback", "-1"}, 2},
		{"dc negative rack cap", []string{"dc", "-rack-cap", "-10"}, 2},
		{"dc nan chip cap", []string{"dc", "-chip-cap", "nan"}, 2},
		{"dc infinite chassis cap", []string{"dc", "-chassis-cap", "+Inf"}, 2},
		{"dc nan ki", []string{"dc", "-ki", "nan"}, 2},
		{"dc infinite ki", []string{"dc", "-ki", "inf"}, 2},
		{"dc negative ki", []string{"dc", "-ki", "-3"}, 2},
		{"dc resume is an unknown flag", []string{"dc", "-resume"}, 2},
		{"dc negative workers", []string{"dc",
			"-racks", "1", "-chassis", "1", "-chips-per-chassis", "2", "-ticks", "8", "-workers", "-3"}, 2},
		{"dc quarantined chips are partial", []string{"dc",
			"-racks", "1", "-chassis", "1", "-chips-per-chassis", "2", "-ticks", "8",
			"-fault-profile", "test-floor,broken=8", "-fault-seed", "5"}, 3},
		{"dc chassis cap below idle is hard", []string{"dc",
			"-racks", "1", "-chassis", "1", "-chips-per-chassis", "2", "-ticks", "8",
			"-chassis-cap", "30"}, 1},
		{"dc chip cap below idle under thermals is hard", []string{"dc",
			"-racks", "1", "-chassis", "1", "-chips-per-chassis", "2", "-ticks", "8",
			"-chip-cap", "20", "-ops-fault-profile", "thermals=1"}, 1},
		{"dc ops recovered is ok", []string{"dc",
			"-racks", "1", "-chassis", "2", "-chips-per-chassis", "2",
			"-ticks", "32", "-tenants", "16",
			"-ops-fault-profile", "chip-death"}, 0},
		{"dc ops shed tenants are partial", []string{"dc",
			"-racks", "1", "-chassis", "1", "-chips-per-chassis", "2",
			"-ticks", "10", "-tenants", "12",
			"-ops-fault-profile", "chip-deaths=2"}, 3},
		{"dc bad ops profile is hard", []string{"dc",
			"-racks", "1", "-chassis", "1", "-chips-per-chassis", "2", "-ticks", "8",
			"-ops-fault-profile", "no-such-preset"}, 2},
		{"dc nan brownout frac is hard", []string{"dc",
			"-racks", "1", "-chassis", "1", "-chips-per-chassis", "2", "-ticks", "8",
			"-ops-fault-profile", "brownouts=1,brownout-frac=NaN"}, 2},
		{"dc nan thermal frac is hard", []string{"dc",
			"-racks", "1", "-chassis", "1", "-chips-per-chassis", "2", "-ticks", "8",
			"-ops-fault-profile", "thermals=1,thermal-frac=nan"}, 2},
		{"dc unknown fault profile", []string{"dc",
			"-racks", "1", "-chassis", "1", "-chips-per-chassis", "2", "-ticks", "8",
			"-fault-profile", "bogus"}, 2},
		{"dc removed fault key", []string{"dc",
			"-racks", "1", "-chassis", "1", "-chips-per-chassis", "2", "-ticks", "8",
			"-fault-profile", "drop=0.1"}, 2},
		{"dc silicon range wraps", []string{"dc",
			"-racks", "1", "-chassis", "1", "-chips-per-chassis", "2",
			"-silicon-start", "18446744073709551615"}, 2},
		{"dc seed range wraps", []string{"dc",
			"-racks", "1", "-chassis", "1", "-chips-per-chassis", "2",
			"-seed", "18446744073709551615"}, 2},
		{"flood is an unknown subcommand", []string{"flood", "-quick"}, 2},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := run(tc.argv); got != tc.want {
				t.Fatalf("run(%v) = %d, want %d", tc.argv, got, tc.want)
			}
		})
	}
}

// TestFleetTableAllQuarantined: a characterize job whose every core is
// quarantined found no limit, so its ranges print "-" rather than the
// searches' start values (1<<30 and 0); the campaign still exits 3.
func TestFleetTableAllQuarantined(t *testing.T) {
	var code int
	out := capture(t, &os.Stdout, func() {
		code = run([]string{"fleet", "-kind", "characterize", "-n", "1", "-trials", "2",
			"-fault-profile", "broken=16", "-workers", "1"})
	})
	if code != 3 {
		t.Fatalf("exit %d, want 3", code)
	}
	if strings.Contains(out, fmt.Sprint(1<<30)) {
		t.Errorf("table prints the search sentinel:\n%s", out)
	}
	found := false
	for _, line := range strings.Split(out, "\n") {
		if slices.Equal(strings.Fields(line), []string{"1", "-", "-", "16"}) {
			found = true
		}
	}
	if !found {
		t.Errorf("no row `1 - - 16` for the all-quarantined job:\n%s", out)
	}
}
