package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/guard"
	"repro/internal/obs"
)

// installPanicHook arms testJobPanic for the test and restores it.
func installPanicHook(t *testing.T, hook func(Job)) {
	t.Helper()
	prev := testJobPanic
	testJobPanic = hook
	t.Cleanup(func() { testJobPanic = prev })
}

// TestPanickingJobQuarantined is the chaos half of the worker-count
// invariance gate: one poison job panics on every attempt, and the
// campaign must still drain at every worker count with the poison job
// recorded failed and every export byte-identical.
func TestPanickingJobQuarantined(t *testing.T) {
	installPanicHook(t, func(j Job) {
		if j.ID == "mc-0002" {
			panic("chaos: poison job")
		}
	})
	camp := MonteCarlo(6, 1)
	var runs []runExports
	for _, workers := range []int{1, 2, 4, 8} {
		runs = append(runs, runWith(t, camp, workers, t.TempDir()))
	}
	for i, r := range runs[1:] {
		diffExports(t, fmt.Sprintf("poison campaign w1 vs w%d", []int{2, 4, 8}[i]), runs[0], r)
	}

	// The poison job is failed-and-quarantined, the rest succeeded.
	reg := obs.NewRegistry()
	res, err := Run(camp, Options{Workers: 4, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Failed(); len(got) != 1 || got[0] != "mc-0002" {
		t.Fatalf("Failed() = %v, want [mc-0002]", got)
	}
	for _, r := range res.Results {
		if r.JobID != "mc-0002" {
			if r.Err != "" {
				t.Fatalf("job %s failed alongside the poison job: %s", r.JobID, r.Err)
			}
			continue
		}
		want := "job mc-0002: poison job quarantined: panic: chaos: poison job"
		if r.Err != want {
			t.Fatalf("poison job Err = %q, want %q", r.Err, want)
		}
	}
	// One counter counts panicking jobs: each panic quarantines its job.
	if got := reg.Counter("fleet_job_panics_total").Value(); got != 1 {
		t.Errorf("fleet_job_panics_total = %d, want 1", got)
	}
	if snap := string(reg.SnapshotJSON()); strings.Contains(snap, "poisoned") {
		t.Errorf("metrics snapshot has a second panic counter:\n%s", snap)
	}
}

// TestPanickingJobNotCached proves a quarantined job is retried on the
// next run instead of poisoning the cache.
func TestPanickingJobNotCached(t *testing.T) {
	poison := true
	installPanicHook(t, func(j Job) {
		if poison && j.ID == "mc-0001" {
			panic("transient chaos")
		}
	})
	dir := t.TempDir()
	camp := MonteCarlo(2, 1)
	res, err := Run(camp, Options{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Failed(); len(got) != 1 {
		t.Fatalf("Failed() = %v, want the poison job", got)
	}
	// Heal the job: the re-run must execute it (not serve a poisoned
	// cache entry) and succeed.
	poison = false
	res, err = Run(camp, Options{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Failed(); len(got) != 0 {
		t.Fatalf("Failed() after heal = %v, want none", got)
	}
	if res.CachedCount() != 1 {
		t.Fatalf("CachedCount() = %d, want 1 (only the healthy job was cached)", res.CachedCount())
	}
}

// crashPoints is the kill matrix: both sides of the cache entry write.
var crashPoints = []string{"fleet/pre-entry", "fleet/post-entry"}

// TestCrashHelperProcess is not a test: re-executed as a subprocess by
// TestKillMatrixResume with the crash point armed, it runs the
// campaign until guard.CrashPoint kills it.
func TestCrashHelperProcess(t *testing.T) {
	//lint:ignore detflow subprocess re-exec handshake: the env var selects helper mode, it never feeds a simulation result
	dir := os.Getenv("FLEET_CRASH_DIR")
	if dir == "" {
		t.Skip("helper mode only (set FLEET_CRASH_DIR)")
	}
	camp := MonteCarlo(3, 21)
	if _, err := Run(camp, Options{Workers: 1, CacheDir: dir}); err != nil {
		t.Fatal(err)
	}
}

// TestKillMatrixResume is the in-repo kill matrix: SIGKILL-equivalent
// death at each crash point, then a plain rerun on the same cache
// directory, then byte-diff against an uninterrupted run.
func TestKillMatrixResume(t *testing.T) {
	camp := MonteCarlo(3, 21)
	ref, err := Run(camp, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	refJSON := mergedJSON(t, ref)

	for _, point := range crashPoints {
		t.Run(strings.ReplaceAll(point, "/", "_"), func(t *testing.T) {
			dir := t.TempDir()
			cmd := exec.Command(os.Args[0], "-test.run", "^TestCrashHelperProcess$")
			//lint:ignore detflow subprocess re-exec handshake: the child inherits the test environment plus the crash-point arming
			cmd.Env = append(os.Environ(),
				"FLEET_CRASH_DIR="+dir,
				guard.CrashPointEnv+"="+point,
			)
			var out bytes.Buffer
			cmd.Stdout = &out
			cmd.Stderr = &out
			err := cmd.Run()
			var ee *exec.ExitError
			if !errors.As(err, &ee) || ee.ExitCode() != 137 {
				t.Fatalf("helper at %s: err = %v (want exit 137), output:\n%s", point, err, out.String())
			}

			// The kill must never leave a torn file behind: every
			// survivor is a whole entry of the campaign.
			checkOnlyEntries(t, dir, camp)
			for name, raw := range snapshotDir(t, dir) {
				if len(raw) == 0 {
					t.Errorf("empty file survived the kill: %s", name)
				}
			}

			res, err := Run(camp, Options{Workers: 2, CacheDir: dir})
			if err != nil {
				t.Fatalf("rerun after kill at %s: %v", point, err)
			}
			if got := mergedJSON(t, res); got != refJSON {
				t.Fatalf("rerun after kill at %s diverged:\n%s\nvs\n%s", point, got, refJSON)
			}
		})
	}
}
