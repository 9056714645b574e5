package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func TestReadModulePath(t *testing.T) {
	dir := t.TempDir()
	gomod := filepath.Join(dir, "go.mod")
	if err := os.WriteFile(gomod, []byte("// header\nmodule example.com/m\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := readModulePath(gomod)
	if err != nil {
		t.Fatal(err)
	}
	if got != "example.com/m" {
		t.Errorf("module path = %q, want example.com/m", got)
	}
	if err := os.WriteFile(gomod, []byte("go 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readModulePath(gomod); err == nil {
		t.Error("want error for go.mod without module directive")
	}
}

func TestConfigScoping(t *testing.T) {
	cases := []struct {
		path     string
		sim, err bool
	}{
		{"repro/internal/chip", true, false},
		{"repro/internal/fsp", false, true},
		{"repro/cmd/atmctl", false, true},
		{"repro/cmd/atmlint", false, true},
		{"repro/internal/report", true, false},
		{"repro/internal/rng", false, false},
		{"repro", false, false},
		{"repro/internal/lint/testdata/src/detflow", true, true},
	}
	for _, c := range cases {
		if got := isSimPackage(c.path); got != c.sim {
			t.Errorf("isSimPackage(%q) = %v, want %v", c.path, got, c.sim)
		}
		if got := isErrPackage(c.path); got != c.err {
			t.Errorf("isErrPackage(%q) = %v, want %v", c.path, got, c.err)
		}
	}
}

func TestSortFindingsOrder(t *testing.T) {
	fs := []Finding{
		{File: "b.go", Line: 1, Col: 1, Rule: "r", Message: "m"},
		{File: "a.go", Line: 2, Col: 1, Rule: "r", Message: "m"},
		{File: "a.go", Line: 1, Col: 5, Rule: "r", Message: "m"},
		{File: "a.go", Line: 1, Col: 5, Rule: "q", Message: "m"},
	}
	sortFindings(fs)
	want := []string{"a.go/1/5/q", "a.go/1/5/r", "a.go/2/1/r", "b.go/1/1/r"}
	for i, f := range fs {
		got := fmt.Sprintf("%s/%d/%d/%s", f.File, f.Line, f.Col, f.Rule)
		if got != want[i] {
			t.Errorf("position %d: got %s, want %s", i, got, want[i])
		}
	}
}

func TestAnalyzersSortedAndNamed(t *testing.T) {
	as := Analyzers()
	if len(as) != 8 {
		t.Fatalf("want 8 analyzers, got %d", len(as))
	}
	for i, a := range as {
		if a.Name == "" || a.Doc == "" || (a.Run == nil && a.RunProgram == nil) {
			t.Errorf("analyzer %d incompletely registered: %+v", i, a)
		}
		if i > 0 && as[i-1].Name >= a.Name {
			t.Errorf("analyzers not sorted: %q before %q", as[i-1].Name, a.Name)
		}
	}
}
