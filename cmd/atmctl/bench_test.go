package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/perf"
)

// silenceStdout routes subcommand rendering to /dev/null for the test
// duration; diagnostics still reach os.Stderr.
func silenceStdout(t *testing.T) {
	t.Helper()
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = devnull
	t.Cleanup(func() {
		os.Stdout = stdout
		//lint:ignore errdrop test teardown of the /dev/null handle
		devnull.Close()
	})
}

func TestBenchEmitsArtifactAndProfiles(t *testing.T) {
	silenceStdout(t)
	dir := t.TempDir()
	out := filepath.Join(dir, "BENCH_core.json")
	cpu := filepath.Join(dir, "cpu.pb.gz")
	mem := filepath.Join(dir, "mem.pb.gz")
	trace := filepath.Join(dir, "trace.out")

	if got := run([]string{"bench", "-set", "kernel", "-quick", "-out", out,
		"-cpuprofile", cpu, "-memprofile", mem, "-trace", trace}); got != 0 {
		t.Fatalf("bench exit = %d, want 0", got)
	}

	doc, err := perf.ReadDoc(out)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Bench != "core" || !doc.Quick || len(doc.Stages) == 0 {
		t.Fatalf("artifact malformed: %+v", doc)
	}
	for _, row := range doc.Stages {
		if row.Group != "kernel" {
			t.Errorf("-set kernel leaked stage %s/%s", row.Group, row.Name)
		}
	}
	for _, path := range []string{cpu, mem, trace} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("%s: missing or empty capture (%v)", path, err)
		}
	}
}

func TestBenchBaselineGate(t *testing.T) {
	silenceStdout(t)
	dir := t.TempDir()
	out := filepath.Join(dir, "BENCH_core.json")
	if got := run([]string{"bench", "-set", "kernel", "-quick", "-out", out}); got != 0 {
		t.Fatalf("baseline run exit = %d, want 0", got)
	}

	doc, err := perf.ReadDoc(out)
	if err != nil {
		t.Fatal(err)
	}
	// writeScaled writes the baseline with every stage's ns/op times f.
	writeScaled := func(f float64) {
		t.Helper()
		scaled := *doc
		scaled.Timing.Stages = make(map[string]perf.StageTiming, len(doc.Timing.Stages))
		for name, st := range doc.Timing.Stages {
			st.NSPerOp = int64(float64(st.NSPerOp) * f)
			scaled.Timing.Stages[name] = st
		}
		raw, err := scaled.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(out, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// A fresh run against its own baseline passes the gate. Host speed
	// moves ns/op past 2× between two runs on a shared host, so the
	// baseline's timings get 100× slack: only the stage set and
	// allocs/op gate this step. TestCompareGates pins the ns/op rule.
	writeScaled(100)
	if got := run([]string{"bench", "-set", "kernel", "-quick", "-baseline", out}); got != 0 {
		t.Fatalf("self-comparison exit = %d, want 0", got)
	}
	// A baseline 100× faster than this host trips the timing gate.
	writeScaled(0.01)
	if got := run([]string{"bench", "-set", "kernel", "-quick", "-baseline", out}); got != 3 {
		t.Fatalf("ns/op regression exit = %d, want 3", got)
	}

	// Poison the baseline: impossible allocs and a vanished stage must
	// both surface as exit 3 (partial), not a hard failure.
	doc.Stages = append(doc.Stages, perf.StageRow{Name: "ghost_stage", Group: "kernel", AllocsPerOp: -1})
	raw, err := doc.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := run([]string{"bench", "-set", "kernel", "-quick", "-baseline", out}); got != 3 {
		t.Fatalf("regression exit = %d, want 3", got)
	}
	// The baseline is read before -out rewrites the same file, so the
	// run is gated against the poisoned rows, not against itself.
	if got := run([]string{"bench", "-set", "kernel", "-quick", "-out", out, "-baseline", out}); got != 3 {
		t.Fatalf("-out naming the baseline: exit = %d, want 3", got)
	}

	// Quick run against a full baseline refuses hard (exit 1).
	doc.Quick = false
	doc.Stages = doc.Stages[:len(doc.Stages)-1]
	raw, err = doc.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := run([]string{"bench", "-set", "kernel", "-quick", "-baseline", out}); got != 1 {
		t.Fatalf("quick/full mismatch exit = %d, want 1", got)
	}

	// A BENCH_fsp.json left by the deleted flood harness holds no stage
	// rows, so only the family check keeps it from passing as a baseline
	// that gates nothing: a hard failure naming both families.
	if err := os.WriteFile(out, []byte(floodBaseline), 0o644); err != nil {
		t.Fatal(err)
	}
	var got int
	stderr := capture(t, &os.Stderr, func() {
		got = run([]string{"bench", "-set", "kernel", "-quick", "-baseline", out})
	})
	if want := `comparing bench "core" against baseline "fsp"`; got != 1 || !strings.Contains(stderr, want) {
		t.Fatalf("flood baseline: exit = %d, stderr %q; want 1 and %q", got, stderr, want)
	}
}

// floodBaseline is the last BENCH_fsp.json the flood harness wrote.
const floodBaseline = `{
  "bench": "fsp",
  "schema": "atm-bench/v1",
  "quick": true,
  "flood": {
    "sessions": 16,
    "commands": 50,
    "pipeline": 8,
    "seed": 1,
    "garbage": 50,
    "max_sessions": 12,
    "issued": 600,
    "executed": 600,
    "shed_sessions": 4,
    "errors": 32,
    "shed_rate": 0.25,
    "p50_ticks": 71.56549520766774,
    "p95_ticks": 213.11475409836066,
    "p99_ticks": 242.62295081967213
  },
  "timing": {
    "cpus": 1,
    "total_ns": 18705396,
    "req_per_sec": 32076.30568206094
  }
}
`

// TestBenchUsageErrors: an unknown -set group exits 2 with a
// diagnostic naming it.
func TestBenchUsageErrors(t *testing.T) {
	silenceStdout(t)
	var got int
	stderr := capture(t, &os.Stderr, func() { got = run([]string{"bench", "-set", "bogus"}) })
	if got != 2 {
		t.Fatalf("unknown -set exit = %d, want 2", got)
	}
	if !strings.Contains(stderr, "bogus") {
		t.Fatalf("unknown -set: stderr does not name the group:\n%s", stderr)
	}
}
