package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/csv"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/chip"
	"repro/internal/rng"
	"repro/internal/units"
)

// -update regenerates the atmctl golden files under testdata/.
var update = flag.Bool("update", false, "rewrite golden atmctl files")

// capture runs fn with *std (os.Stdout or os.Stderr) redirected to a
// temp file and returns what fn wrote there.
func capture(t *testing.T, std **os.File, fn func()) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "std")
	if err != nil {
		t.Fatal(err)
	}
	saved := *std
	*std = f
	fn()
	*std = saved
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestTransientCSVGolden pins `atmctl transient -csv` across commits:
// for the reference server's idle P0 and a generated server's stressed
// P1, the stdout, the CSV header and the SHA-256 of the whole CSV.
// The temp CSV path is written as trace.csv. Regenerate intentionally
// with:
//
//	go test ./cmd/atmctl -run TestTransientCSVGolden -update
func TestTransientCSVGolden(t *testing.T) {
	csvPath := filepath.Join(t.TempDir(), "trace.csv")
	var b bytes.Buffer
	for _, args := range [][]string{
		{"transient", "-steps", "300", "-csv", csvPath},
		{"transient", "-steps", "300", "-stress", "-generated", "4", "-chip", "P1", "-csv", csvPath},
	} {
		var code int
		stdout := capture(t, &os.Stdout, func() { code = run(args) })
		if code != 0 {
			t.Fatalf("run(%v) = %d, want 0", args, code)
		}
		csv, err := os.ReadFile(csvPath)
		if err != nil {
			t.Fatal(err)
		}
		header, _, _ := strings.Cut(string(csv), "\n")
		b.WriteString(fmt.Sprintf("$ atmctl %s\n", strings.ReplaceAll(strings.Join(args, " "), csvPath, "trace.csv")))
		b.WriteString(fmt.Sprintf("trace.csv: %d lines, sha256 %x\n%s\n", bytes.Count(csv, []byte("\n")), sha256.Sum256(csv), header))
		b.WriteString(strings.ReplaceAll(stdout, csvPath, "trace.csv"))
	}
	got := b.Bytes()
	path := filepath.Join("testdata", "transient-csv.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden transient CSV (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("transient CSV drifted from its golden.\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestMinSupply(t *testing.T) {
	var samples []chip.TransientSample
	for _, v := range []units.Volt{1.25, 1.21, 1.24} {
		samples = append(samples, chip.TransientSample{Supply: v, Freqs: []units.MHz{4600}})
	}
	if lo := minSupply(samples); lo != 1.21 {
		t.Errorf("minSupply = %v, want 1.21", lo)
	}
	// An empty trace never reaches minSupply: a zero-step transient is
	// a usage error, rejected before the CSV is written.
	csvPath := filepath.Join(t.TempDir(), "trace.csv")
	if code := run([]string{"transient", "-steps", "0", "-csv", csvPath}); code != 2 {
		t.Errorf("zero-step transient exited %d, want 2", code)
	}
	if _, err := os.Stat(csvPath); !os.IsNotExist(err) {
		t.Errorf("zero-step transient left a CSV behind: %v", err)
	}
}

func TestWriteTransientCSV(t *testing.T) {
	cores := []chip.CoreState{{Label: "P0C0"}, {Label: "P0C1"}}
	samples := []chip.TransientSample{
		{TimeNs: 0, Supply: 1.25, Freqs: []units.MHz{4600, 4610}},
		{TimeNs: 1, Supply: 1.249, Freqs: []units.MHz{4601, 4612}},
	}
	var sb strings.Builder
	if err := writeTransientCSV(&sb, cores, samples); err != nil {
		t.Fatal(err)
	}
	want := "time_ns,supply_mv,P0C0_mhz,P0C1_mhz\n0.0,1250.0,4600,4610\n1.0,1249.0,4601,4612\n"
	if got := sb.String(); got != want {
		t.Errorf("CSV =\n%s\nwant\n%s", got, want)
	}
}

func TestWriteTransientCSVQuotesSpecialLabels(t *testing.T) {
	labels := []string{`EP"0,0`, "plain", "multi\nline"}
	var cores []chip.CoreState
	for _, l := range labels {
		cores = append(cores, chip.CoreState{Label: l})
	}
	samples := []chip.TransientSample{
		{TimeNs: 0, Supply: 1.25, Freqs: []units.MHz{4600, 4610, 4620}},
		{TimeNs: 1, Supply: 1.249, Freqs: []units.MHz{4601, 4611, 4621}},
	}
	var sb strings.Builder
	if err := writeTransientCSV(&sb, cores, samples); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(strings.NewReader(sb.String())).ReadAll()
	if err != nil {
		t.Fatalf("export is not parseable CSV: %v\n%s", err, sb.String())
	}
	if len(rows) != 3 {
		t.Fatalf("parsed %d rows, want 3 (header + 2 samples)", len(rows))
	}
	header := rows[0]
	if len(header) != 2+len(labels) {
		t.Fatalf("header has %d columns, want %d: %q", len(header), 2+len(labels), header)
	}
	for i, l := range labels {
		if got, want := header[2+i], l+"_mhz"; got != want {
			t.Errorf("header column %d = %q, want %q", 2+i, got, want)
		}
	}
	for _, row := range rows[1:] {
		if len(row) != len(header) {
			t.Errorf("data row has %d columns, header has %d: %q", len(row), len(header), row)
		}
	}
	if got := rows[1][2]; got != "4600" {
		t.Errorf("first core frequency column = %q, want 4600", got)
	}
}

// TestTransientCSVFromRun writes a real transient of the reference
// server's P0 the way `atmctl transient -csv` does, and checks the
// trace reads back: one row per sample, one column per core under its
// label, and a per-core mean matching the transient's own.
func TestTransientCSVFromRun(t *testing.T) {
	m := chip.NewReference()
	res, err := m.Transient("P0", 500, 1.0, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	cs, err := st.ChipState("P0")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := writeTransientCSV(&sb, cs.Cores, res.Samples); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(strings.NewReader(sb.String())).ReadAll()
	if err != nil {
		t.Fatalf("trace is not parseable CSV: %v", err)
	}
	if len(rows) != 1+500 {
		t.Fatalf("parsed %d rows, want header + 500 samples", len(rows))
	}
	if len(rows[0]) != 2+8 {
		t.Fatalf("header has %d columns, want time, supply and 8 cores: %q", len(rows[0]), rows[0])
	}
	if got := rows[0][2]; got != "P0C0_mhz" {
		t.Errorf("first core column = %q, want P0C0_mhz", got)
	}
	// Each frequency is rounded to the MHz, so the column mean stays
	// within a MHz of the transient's.
	var sum float64
	for _, row := range rows[1:] {
		f, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatal(err)
		}
		sum += f
	}
	if mean := sum / 500; math.Abs(mean-float64(res.MeanFreq[0])) > 1 {
		t.Errorf("P0C0 column mean %v vs transient mean %v", mean, res.MeanFreq[0])
	}
	if code := run([]string{"transient", "-chip", "P9"}); code != 2 {
		t.Errorf("bogus chip exited %d, want 2 (a usage error)", code)
	}
}
