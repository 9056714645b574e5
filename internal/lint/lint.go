// Package lint is a stdlib-only static-analysis framework enforcing the
// simulator's determinism, unit-safety and error-hygiene invariants —
// the properties the Go compiler cannot check but the reproduction
// depends on (DESIGN.md §3, golden tests in internal/core).
//
// The framework deliberately mirrors the shape of golang.org/x/tools'
// go/analysis (Analyzer, Pass, Reportf) without importing it: the repo
// carries no module dependencies, so the loader in load.go type-checks
// the tree with go/parser + go/types and the importers shipped in the
// standard library.
//
// Rules:
//
//	detflow    — determinism: no wall-clock, environment or
//	             ambient-randomness use anywhere in a simulation
//	             package, and no call chain from a simulation entry
//	             point to one through any helper in any package.
//	maporder   — no order-sensitive work (appends later left unsorted,
//	             output writes, RNG draws, float or string folds and
//	             argmin or first-match assignments into outer
//	             variables) inside range-over-map loops.
//	hotpath    — no allocation- or dispatch-inducing constructs inside
//	             functions annotated //atm:hotpath.
//	nilsafe    — exported methods on //atm:nilsafe handle types must
//	             guard a nil receiver before touching receiver state.
//	floatcmp   — no ==/!= between floating-point values outside tests;
//	             compare via internal/stats epsilon helpers.
//	unitsafety — no direct conversion between distinct internal/units
//	             types, and no +/- mixing of float64-stripped units.
//	errdrop    — no discarded error returns in cmd/ and internal/fsp.
//	deadcode   — no non-test function that no program reaches from a
//	             main, a package init or an Example function.
//	ignore     — malformed, unknown-rule or unused //lint:ignore
//	             directives.
//
// Most rules inspect one package at a time (Analyzer.Run); detflow and
// deadcode are program rules (Analyzer.RunProgram) that see every
// loaded package at once and walk the cross-package call graph built in
// callgraph.go.
//
// A finding is suppressed by an annotation on the same line, the line
// directly above it, or — for findings inside a multi-line simple
// statement (a long append/builder chain) — on or directly above the
// statement's opening line:
//
//	//lint:ignore <rule>[,<rule>...] <reason>
//
// The reason is mandatory; the framework reports malformed or
// unknown-rule directives under the rule ID "ignore". A whole-module
// run (Run) also reports there every rule a directive names that
// suppressed no finding, so a directive cannot outlive its finding.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// Severity classifies how a finding should be treated by a reader.
// Every finding, regardless of severity, fails the lint run: severity
// is reporting metadata, not an enforcement level.
type Severity string

const (
	// SeverityError marks invariant violations (nondeterminism,
	// dropped errors) that are bugs until proven otherwise.
	SeverityError Severity = "error"
	// SeverityWarn marks constructs that are sometimes legitimate but
	// must be annotated to pass (exact float compares, unit strips).
	SeverityWarn Severity = "warn"
)

// Analyzer is one lint rule: a name, documentation, a severity for its
// findings and either a per-package Run function or a whole-program
// RunProgram function (exactly one must be set).
type Analyzer struct {
	// Name is the rule ID reported with each finding and matched by
	// //lint:ignore directives.
	Name string
	// Doc is a one-line description shown by `atmlint -list`.
	Doc string
	// Severity classifies the rule's findings.
	Severity Severity
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass)
	// RunProgram inspects every loaded package at once — the hook for
	// call-graph rules that must see cross-package flows.
	RunProgram func(*ProgramPass)
}

// ProgramPass carries every analyzed package through one whole-program
// analyzer.
type ProgramPass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Pkgs are all analyzed packages, sorted by import path.
	Pkgs []*Package
	// Graph is the call graph over Pkgs, built once per run.
	Graph *CallGraph

	report func(Finding)
}

// Reportf records a finding at pos, mirroring Pass.Reportf.
func (p *ProgramPass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	p.report(Finding{
		Rule:     p.Analyzer.Name,
		Severity: p.Analyzer.Severity,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's syntax trees, sorted by filename.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Info holds the type-checker's results for Files.
	Info *types.Info

	report func(Finding)
}

// Reportf records a finding at pos. Suppression by //lint:ignore
// directives is applied by the runner, not here.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	p.report(Finding{
		Rule:     p.Analyzer.Name,
		Severity: p.Analyzer.Severity,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Finding is one reported rule violation.
type Finding struct {
	Rule     string   `json:"rule"`
	Severity Severity `json:"severity"`
	File     string   `json:"file"`
	Line     int      `json:"line"`
	Col      int      `json:"col"`
	Message  string   `json:"message"`
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Rule, f.Message)
}

// sortFindings orders findings deterministically: by file, line,
// column, rule, then message. Two runs over the same tree must render
// byte-identical output (the tool polices nondeterminism; it cannot
// exhibit it).
func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
}

// The packages the path-scoped rules police.
const (
	// unitsPackage is the import path of the typed-quantities package
	// whose types unitsafety protects.
	unitsPackage = "repro/internal/units"
	// rngPackage is the import path of the blessed deterministic RNG;
	// detflow allowlists it and maporder treats draws from it as
	// order-sensitive sinks.
	rngPackage = "repro/internal/rng"
	// testdataPrefix puts lint's own fixture packages (which live
	// under a testdata directory and are skipped by module walks) in
	// scope for every path-scoped rule, so `atmlint <fixture-dir>`
	// exercises all analyzers.
	testdataPrefix = "repro/internal/lint/testdata/"
)

// errPackages are import-path prefixes where errdrop polices discarded
// errors (exact path, or prefix when ending in "/").
var errPackages = []string{"repro/cmd/", "repro/internal/fsp"}

// nonSimPackages are the packages under repro/internal that are not
// simulation code: the operator protocol, which times live sessions
// on the wall clock, this linter, the performance harness, and the
// blessed RNG.
var nonSimPackages = []string{"fsp", "lint", "perf", "rng"}

// isSimPackage reports whether detflow treats path as simulation code:
// wall-clock, environment and ambient-randomness uses are banned
// anywhere in it, and its exported functions and package
// initialization are the entry points of its call chains. That is
// every package under repro/internal except nonSimPackages.
func isSimPackage(path string) bool {
	if isTestdata(path) {
		return true
	}
	rest, ok := strings.CutPrefix(path, "repro/internal/")
	top, _, _ := strings.Cut(rest, "/")
	return ok && !slices.Contains(nonSimPackages, top)
}

// isErrPackage reports whether errdrop polices path.
func isErrPackage(path string) bool {
	if isTestdata(path) {
		return true
	}
	for _, p := range errPackages {
		if strings.HasSuffix(p, "/") {
			if strings.HasPrefix(path, p) {
				return true
			}
		} else if path == p {
			return true
		}
	}
	return false
}

// isTestdata reports whether path is a lint fixture package.
func isTestdata(path string) bool {
	return strings.HasPrefix(path, testdataPrefix)
}

// Analyzers returns every registered rule, sorted by name.
func Analyzers() []*Analyzer {
	as := []*Analyzer{
		DeadCode,
		DetFlow,
		ErrDrop,
		FloatCmp,
		HotPath,
		MapOrder,
		NilSafe,
		UnitSafety,
	}
	sort.Slice(as, func(i, j int) bool { return as[i].Name < as[j].Name })
	return as
}

// ---- //lint:ignore directives ----

const ignorePrefix = "//lint:ignore"

// ignoreDirective is one parsed //lint:ignore annotation.
type ignoreDirective struct {
	rules []string // rule IDs the directive suppresses
	used  []bool   // per rule: the directive suppressed a finding
	at    token.Position
}

// parseIgnores extracts every //lint:ignore directive from a file in
// source order. Malformed directives (missing rule or reason) are
// reported as findings under the rule ID "ignore".
func parseIgnores(fset *token.FileSet, file *ast.File, report func(Finding)) []*ignoreDirective {
	var out []*ignoreDirective
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, ignorePrefix) {
				continue
			}
			pos := fset.Position(c.Pos())
			rest := strings.TrimPrefix(c.Text, ignorePrefix)
			if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
				continue // e.g. //lint:ignorefoo — not ours
			}
			fields := strings.Fields(rest)
			if len(fields) < 2 {
				report(Finding{
					Rule:     "ignore",
					Severity: SeverityError,
					File:     pos.Filename,
					Line:     pos.Line,
					Col:      pos.Column,
					Message:  "malformed //lint:ignore directive: want \"//lint:ignore <rule>[,<rule>...] <reason>\"",
				})
				continue
			}
			rules := strings.Split(fields[0], ",")
			known := map[string]bool{}
			for _, a := range Analyzers() {
				known[a.Name] = true
			}
			bad := false
			for _, r := range rules {
				if !known[r] {
					report(Finding{
						Rule:     "ignore",
						Severity: SeverityError,
						File:     pos.Filename,
						Line:     pos.Line,
						Col:      pos.Column,
						Message:  fmt.Sprintf("//lint:ignore names unknown rule %q", r),
					})
					bad = true
				}
			}
			if bad {
				continue
			}
			out = append(out, &ignoreDirective{rules: rules, used: make([]bool, len(rules)), at: pos})
		}
	}
	return out
}

// unused reports, under the rule ID "ignore", every rule of d that
// suppressed no finding.
func (d *ignoreDirective) unused(report func(Finding)) {
	for i, r := range d.rules {
		if !d.used[i] {
			report(Finding{
				Rule:     "ignore",
				Severity: SeverityError,
				File:     d.at.Filename,
				Line:     d.at.Line,
				Col:      d.at.Column,
				Message:  fmt.Sprintf("unused //lint:ignore rule %q: it suppresses no finding; remove it from the directive", r),
			})
		}
	}
}

// fileIgnores is the suppression context of one source file: its
// parsed directives keyed by line, plus the statement anchors that let
// a directive on the opening line of a multi-line statement cover
// findings on the statement's continuation lines.
type fileIgnores struct {
	directives map[int][]*ignoreDirective
	anchors    map[int]int // continuation line → statement opening line
}

// stmtAnchors maps every continuation line of a multi-line *simple*
// statement (assignment, expression, return, defer, go, send, decl) to
// the statement's opening line. Block-bearing statements (if, for,
// switch, func) are deliberately excluded: a directive on `if` must not
// blanket-suppress its whole body. Inner statements win, so a one-line
// statement inside a multi-line one anchors to itself.
func stmtAnchors(fset *token.FileSet, file *ast.File) map[int]int {
	anchors := map[int]int{}
	mark := func(n ast.Node) {
		start := fset.Position(n.Pos()).Line
		end := fset.Position(n.End()).Line
		for line := start + 1; line <= end; line++ {
			anchors[line] = start
		}
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt, *ast.ExprStmt, *ast.ReturnStmt,
			*ast.DeferStmt, *ast.GoStmt, *ast.SendStmt,
			*ast.IncDecStmt, *ast.DeclStmt:
			mark(s.(ast.Node))
		case *ast.ValueSpec: // package-level var initializers
			mark(s)
		}
		return true
	})
	return anchors
}

// suppressed reports whether a finding is covered by a directive for
// its rule on the same line, the line directly above, or (via the
// statement anchors) on or directly above the opening line of the
// multi-line statement containing it, and marks that directive's rule
// used.
func suppressed(f Finding, ignores map[string]*fileIgnores) bool {
	fi := ignores[f.File]
	if fi == nil {
		return false
	}
	lines := []int{f.Line, f.Line - 1}
	if anchor, ok := fi.anchors[f.Line]; ok {
		lines = append(lines, anchor, anchor-1)
	}
	for _, line := range lines {
		for _, d := range fi.directives[line] {
			for i, r := range d.rules {
				if r == f.Rule {
					d.used[i] = true
					return true
				}
			}
		}
	}
	return false
}
