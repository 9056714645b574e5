package lint

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
)

// Run loads every package under the module containing dir and applies
// every registered analyzer, honoring //lint:ignore directives and
// reporting the rules of directives that suppressed nothing. The
// returned findings are deterministically sorted; file paths are
// relative to the module root so output is stable across checkouts.
func Run(dir string) ([]Finding, error) {
	return runLoaded(dir, true, func(l *Loader) ([]*Package, error) {
		return l.LoadAll()
	})
}

// RunDir lints the single package in dir (which must sit inside a
// module), with the same directive handling and ordering as Run.
// Program rules see only that package, so a directive that suppresses
// nothing is not reported: only a whole-module run can prove that no
// call chain reaches it.
func RunDir(dir string) ([]Finding, error) {
	return runLoaded(dir, false, func(l *Loader) ([]*Package, error) {
		pkg, err := l.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		return []*Package{pkg}, nil
	})
}

func runLoaded(dir string, whole bool, load func(*Loader) ([]*Package, error)) ([]Finding, error) {
	loader, err := NewLoader(dir)
	if err != nil {
		return nil, err
	}
	pkgs, err := load(loader)
	if err != nil {
		return nil, err
	}
	findings := analyze(loader, pkgs, Analyzers(), whole)
	for i := range findings {
		if filepath.IsAbs(findings[i].File) {
			if rel, err := filepath.Rel(loader.root, findings[i].File); err == nil {
				findings[i].File = filepath.ToSlash(rel)
			}
		}
	}
	sortFindings(findings)
	return findings, nil
}

// analyze applies analyzers to the given packages, suppressing
// findings covered by //lint:ignore directives and reporting malformed
// directives. Program analyzers see the packages as a (partial)
// program. When whole is set, pkgs is the entire module and every
// analyzer ran, so each directive rule that suppressed no finding is
// reported too. Findings are sorted before being returned.
func analyze(loader *Loader, pkgs []*Package, analyzers []*Analyzer, whole bool) []Finding {
	var all []Finding
	keep := func(f Finding) { all = append(all, f) } // directive findings are not suppressible
	// Suppression context for every file of every package up front:
	// program analyzers report across package boundaries.
	ignores := map[string]*fileIgnores{}
	var directives []*ignoreDirective
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			ds := parseIgnores(loader.fset, file, keep)
			byLine := map[int][]*ignoreDirective{}
			for _, d := range ds {
				byLine[d.at.Line] = append(byLine[d.at.Line], d)
			}
			ignores[loader.fset.Position(file.Pos()).Filename] = &fileIgnores{
				directives: byLine,
				anchors:    stmtAnchors(loader.fset, file),
			}
			directives = append(directives, ds...)
		}
	}
	var raw []Finding
	report := func(f Finding) { raw = append(raw, f) }
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			a.Run(&Pass{
				Analyzer: a,
				Fset:     loader.fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				report:   report,
			})
		}
	}
	var graph *CallGraph
	for _, a := range analyzers {
		if a.RunProgram == nil {
			continue
		}
		if graph == nil {
			graph = BuildCallGraph(loader.fset, pkgs)
		}
		a.RunProgram(&ProgramPass{
			Analyzer: a,
			Fset:     loader.fset,
			Pkgs:     pkgs,
			Graph:    graph,
			report:   report,
		})
	}
	for _, f := range raw {
		if !suppressed(f, ignores) {
			all = append(all, f)
		}
	}
	if whole {
		for _, d := range directives {
			d.unused(keep)
		}
	}
	sortFindings(all)
	return all
}

// Render writes findings one per line in file:line:col form.
func Render(w io.Writer, findings []Finding) error {
	for _, f := range findings {
		if _, err := fmt.Fprintln(w, f.String()); err != nil {
			return err
		}
	}
	return nil
}

// RenderJSON writes findings as an indented JSON array (an empty
// array, not null, when there are none) followed by a newline.
func RenderJSON(w io.Writer, findings []Finding) error {
	if findings == nil {
		findings = []Finding{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(findings)
}
