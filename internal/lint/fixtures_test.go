package lint

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// The fixture harness is a small analysistest: each package under
// testdata/src/<name> carries `// want "substring"` comments on the
// lines its findings must land on (`// want-above "substring"` targets
// the preceding line, for findings on comment-only lines). A want is
// satisfied by any finding on its line whose message contains the
// quoted substring; every finding must be wanted and every want must
// be found.

// fixtureCases maps fixture package name → the analyzers run over it.
// Each fixture is named after its rule, except detrand: the direct
// ambient-entropy uses, which detflow reports.
var fixtureCases = map[string][]*Analyzer{
	"deadcode":   {DeadCode},
	"detflow":    {DetFlow},
	"detrand":    {DetFlow},
	"maporder":   {MapOrder},
	"floatcmp":   {FloatCmp},
	"hotpath":    {HotPath},
	"nilsafe":    {NilSafe},
	"unitsafety": {UnitSafety},
	"errdrop":    {ErrDrop},
	"ignoredir":  {FloatCmp},
}

func TestFixtures(t *testing.T) {
	for name, analyzers := range fixtureCases {
		t.Run(name, func(t *testing.T) {
			runFixture(t, name, analyzers)
		})
	}
}

func runFixture(t *testing.T, name string, analyzers []*Analyzer) {
	t.Helper()
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join("testdata", "src", name)
	pkg, err := loader.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	findings := analyze(loader, []*Package{pkg}, DefaultConfig(), analyzers, false)

	wants := parseWants(t, loader, pkg)
	for _, f := range findings {
		key := wantKey{filepath.Base(f.File), f.Line}
		matched := false
		for _, w := range wants[key] {
			if strings.Contains(f.Message, w.substr) {
				w.hits++
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding %s:%d [%s] %s", key.file, f.Line, f.Rule, f.Message)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if w.hits == 0 {
				t.Errorf("%s:%d: no finding matched want %q", key.file, key.line, w.substr)
			}
		}
	}
	if len(findings) == 0 {
		t.Fatalf("fixture %s produced no findings at all", name)
	}
}

type wantKey struct {
	file string
	line int
}

type want struct {
	substr string
	hits   int
}

var wantRe = regexp.MustCompile(`//\s*want(-above)?\s+(.*)`)
var quotedRe = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)

// parseWants extracts want expectations from every comment of the
// fixture package.
func parseWants(t *testing.T, loader *Loader, pkg *Package) map[wantKey][]*want {
	t.Helper()
	out := map[wantKey][]*want{}
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := loader.fset.Position(c.Pos())
				line := pos.Line
				if m[1] == "-above" {
					line--
				}
				quoted := quotedRe.FindAllString(m[2], -1)
				if len(quoted) == 0 {
					t.Fatalf("%s:%d: want comment without a quoted substring", pos.Filename, pos.Line)
				}
				for _, q := range quoted {
					s, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s:%d: bad want string %s: %v", pos.Filename, pos.Line, q, err)
					}
					key := wantKey{filepath.Base(pos.Filename), line}
					out[key] = append(out[key], &want{substr: s})
				}
			}
		}
	}
	return out
}

// TestFixtureRuleIDs asserts each analyzer reports under its own name
// on its fixture — the driver's rule IDs must be trustworthy.
func TestFixtureRuleIDs(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	for name, analyzers := range fixtureCases {
		if name == "ignoredir" {
			continue // reports under both "floatcmp" and "ignore"
		}
		pkg, err := loader.LoadDir(filepath.Join("testdata", "src", name))
		if err != nil {
			t.Fatal(err)
		}
		findings := analyze(loader, []*Package{pkg}, DefaultConfig(), analyzers, false)
		if len(findings) == 0 {
			t.Errorf("fixture %s: no findings", name)
		}
		for _, f := range findings {
			if f.Rule != analyzers[0].Name {
				t.Errorf("fixture %s: finding reported under rule %q: %s", name, f.Rule, f)
			}
		}
	}
}

// TestIgnoreDirectiveRule asserts the malformed-directive findings in
// the ignoredir fixture come out under the "ignore" rule ID.
func TestIgnoreDirectiveRule(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(filepath.Join("testdata", "src", "ignoredir"))
	if err != nil {
		t.Fatal(err)
	}
	findings := analyze(loader, []*Package{pkg}, DefaultConfig(), []*Analyzer{FloatCmp}, false)
	rules := map[string]int{}
	for _, f := range findings {
		rules[f.Rule]++
	}
	if rules["ignore"] != 2 {
		t.Errorf("want 2 findings under rule \"ignore\" (malformed + unknown rule), got %d: %v", rules["ignore"], findings)
	}
	if rules["floatcmp"] != 3 {
		t.Errorf("want 3 unsuppressed floatcmp findings (wrong rule, too far, block not anchored), got %d: %v", rules["floatcmp"], findings)
	}
}

// TestUnusedDirectives runs the staleignore fixture the way a
// whole-module run sees it: each directive rule that suppresses no
// finding is one "ignore" finding naming that rule, and a used
// directive is silent. RunDir, a partial program, reports none.
func TestUnusedDirectives(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join("testdata", "src", "staleignore")
	pkg, err := loader.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Directive line → the unused rule its finding must name.
	want := map[int]string{17: `"floatcmp"`, 23: `"detflow"`}
	findings := analyze(loader, []*Package{pkg}, DefaultConfig(), Analyzers(), true)
	if len(findings) != len(want) {
		t.Fatalf("want %d unused-directive findings, got %d: %v", len(want), len(findings), findings)
	}
	for _, f := range findings {
		rule, ok := want[f.Line]
		if !ok || f.Rule != "ignore" || !strings.Contains(f.Message, "unused //lint:ignore rule "+rule) {
			t.Errorf("unexpected finding %s", f)
		}
	}

	partial, err := RunDir(dir, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(partial) != 0 {
		t.Errorf("RunDir reported %v; unused directives are a whole-module finding", partial)
	}
}

// TestDeadCodeNeedsAProgram: without a main package every library
// function may be some program's entry, so deadcode judges nothing.
// RunDir on a library package, and every other fixture, report no
// deadcode finding.
func TestDeadCodeNeedsAProgram(t *testing.T) {
	findings, err := RunDir(filepath.Join("testdata", "src", "callgraph", "a"), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		if f.Rule == "deadcode" {
			t.Errorf("RunDir on a library package: %s", f)
		}
	}
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	for name := range fixtureCases {
		if name == "deadcode" {
			continue
		}
		pkg, err := loader.LoadDir(filepath.Join("testdata", "src", name))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range analyze(loader, []*Package{pkg}, DefaultConfig(), []*Analyzer{DeadCode}, false) {
			if f.Rule == "deadcode" {
				t.Errorf("fixture %s: %s", name, f)
			}
		}
	}
}

func ExampleFinding_String() {
	f := Finding{Rule: "detflow", Severity: SeverityError, File: "internal/chip/machine.go", Line: 12, Col: 3, Message: "simulation package uses time.Now"}
	fmt.Println(f)
	// Output: internal/chip/machine.go:12:3: [detflow] simulation package uses time.Now
}
