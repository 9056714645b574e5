package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/report"
	"repro/internal/silicon"
)

var sharedSuite *Suite

func testSuite(t *testing.T) *Suite {
	t.Helper()
	if sharedSuite == nil {
		s, err := NewSuite(SuiteOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sharedSuite = s
	}
	return sharedSuite
}

func render(t *testing.T, a *report.Artifact) string {
	t.Helper()
	var sb strings.Builder
	if err := a.Render(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestStagesAreCached(t *testing.T) {
	s := testSuite(t)
	r1, err := s.Report()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Report()
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("Report not cached")
	}
	d1, err := s.Deployment()
	if err != nil {
		t.Fatal(err)
	}
	d2, err := s.Deployment()
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Error("Deployment not cached")
	}
	m1, err := s.Manager()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := s.Manager()
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Error("Manager not cached")
	}
}

func TestTable1ArtifactMatchesPaper(t *testing.T) {
	s := testSuite(t)
	a, err := s.Table1()
	if err != nil {
		t.Fatal(err)
	}
	out := render(t, a)
	if !strings.Contains(out, "16/16 rows match") {
		t.Errorf("Table I artifact does not report a full match:\n%s", out)
	}
	if strings.Contains(out, "false") {
		t.Errorf("Table I artifact contains mismatched rows:\n%s", out)
	}
}

func TestFig1Shape(t *testing.T) {
	s := testSuite(t)
	a, err := s.Fig1()
	if err != nil {
		t.Fatal(err)
	}
	rows := a.Tables[0].Rows
	if len(rows) != 4 {
		t.Fatalf("Fig. 1 has %d schemes", len(rows))
	}
	// The best-case column must be non-decreasing down the schemes.
	prev := 0.0
	for _, row := range rows {
		var v float64
		if _, err := fscan(row[2], &v); err != nil {
			t.Fatalf("bad cell %q", row[2])
		}
		if v < prev {
			t.Errorf("best-case frequency regressed at %s: %v < %v", row[0], v, prev)
		}
		prev = v
	}
}

func TestFig7HasAllCores(t *testing.T) {
	s := testSuite(t)
	a, err := s.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Tables[0].Rows) != 16 {
		t.Errorf("Fig. 7 has %d rows", len(a.Tables[0].Rows))
	}
}

func TestFig8HasSixCores(t *testing.T) {
	s := testSuite(t)
	a, err := s.Fig8()
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Tables[0].Rows) != 6 {
		t.Errorf("Fig. 8 lists %d failing cores, paper has 6", len(a.Tables[0].Rows))
	}
}

func TestFig10MatrixDimensions(t *testing.T) {
	s := testSuite(t)
	a, err := s.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	tbl := a.Tables[0]
	if len(tbl.Header) != 17 { // app column + 16 cores
		t.Errorf("Fig. 10 has %d columns", len(tbl.Header))
	}
	if len(tbl.Rows) < 25 {
		t.Errorf("Fig. 10 has %d application rows", len(tbl.Rows))
	}
	// Top row is the most stressful application (x264).
	if tbl.Rows[0][0] != "x264" {
		t.Errorf("Fig. 10 top row is %s, want x264", tbl.Rows[0][0])
	}
}

func TestFig14AverageLadder(t *testing.T) {
	s := testSuite(t)
	a, err := s.Fig14()
	if err != nil {
		t.Fatal(err)
	}
	rows := a.Tables[0].Rows
	avg := rows[len(rows)-1]
	if avg[0] != "AVERAGE" {
		t.Fatalf("last row is %q", avg[0])
	}
	var def, unm, max float64
	if _, err := fscan(strings.TrimSuffix(avg[1], "%"), &def); err != nil {
		t.Fatal(err)
	}
	if _, err := fscan(strings.TrimSuffix(avg[2], "%"), &unm); err != nil {
		t.Fatal(err)
	}
	if _, err := fscan(strings.TrimSuffix(avg[3], "%"), &max); err != nil {
		t.Fatal(err)
	}
	if !(def < unm && unm < max) {
		t.Errorf("improvement ladder broken: %.1f / %.1f / %.1f", def, unm, max)
	}
	if max < 13 || max > 18 {
		t.Errorf("managed-max average %.1f%%, paper ≈15.2%%", max)
	}
}

func TestExtensionExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("extension studies are slow")
	}
	s := testSuite(t)
	for _, e := range s.ExtensionExperiments() {
		a, err := e.Run()
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if out := render(t, a); len(out) < 100 {
			t.Errorf("%s rendered too little", e.ID)
		}
	}
}

func TestSuiteOnGeneratedSilicon(t *testing.T) {
	profile, err := silicon.Generate(5, silicon.GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSuite(SuiteOptions{Profile: profile})
	if err != nil {
		t.Fatal(err)
	}
	// Table I on generated silicon: runs, but naturally does not match
	// the paper.
	a, err := s.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Tables[0].Rows) != 16 {
		t.Errorf("generated Table I has %d rows", len(a.Tables[0].Rows))
	}
}

func TestRunExperimentUnknown(t *testing.T) {
	s := testSuite(t)
	if _, err := s.RunExperiment("fig13"); err == nil {
		t.Error("fig13 (a diagram, not data) should be unknown")
	}
}

// fscan parses a float from a cell.
func fscan(s string, v *float64) (int, error) {
	return fmt.Sscanf(s, "%f", v)
}
