package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// The loader replaces golang.org/x/tools/go/packages with a small
// module-aware walker: it discovers every package under the module
// root, parses it with go/parser, and type-checks it with go/types.
// Imports resolve in two tiers — module-internal paths map
// mechanically onto directories under the root, and everything else is
// assumed to be standard library and resolved through the toolchain's
// export data (go/importer "gc"), falling back to type-checking the
// stdlib from source ("source") on toolchains without export data.

// Package is one loaded, type-checked package.
type Package struct {
	// Path is the package's import path within the module.
	Path string
	// Dir is the absolute directory holding the package's files.
	Dir string
	// Files are the parsed syntax trees, sorted by filename.
	Files []*ast.File
	// Types and Info are the type-checker's outputs.
	Types *types.Package
	Info  *types.Info
}

// Loader discovers, parses and type-checks the module's packages.
type Loader struct {
	fset    *token.FileSet
	root    string // absolute module root (directory with go.mod)
	modPath string

	// analyzed memoizes packages loaded with their in-package test
	// files merged (the form the analyzers see); deps memoizes the
	// export form (non-test files only) used to satisfy imports, so
	// a test file's imports can never induce a false cycle.
	analyzed map[string]*Package
	deps     map[string]*types.Package
	checking map[string]bool // import-cycle detection for deps

	stdGC  types.Importer
	stdSrc types.Importer
}

// NewLoader creates a loader rooted at the directory containing go.mod.
// dir may be the root itself or any directory beneath it.
func NewLoader(dir string) (*Loader, error) {
	root, err := findModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	modPath, err := readModulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	return &Loader{
		fset:     token.NewFileSet(),
		root:     root,
		modPath:  modPath,
		analyzed: map[string]*Package{},
		deps:     map[string]*types.Package{},
		checking: map[string]bool{},
		stdGC:    importer.Default(),
	}, nil
}

// findModuleRoot walks upward from dir until it finds go.mod.
func findModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := abs; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("lint: no go.mod found above %s", abs)
		}
		d = parent
	}
}

// readModulePath extracts the module path from a go.mod file.
func readModulePath(path string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", path)
}

// LoadAll discovers and type-checks every package under the module
// root, skipping testdata, vendor, hidden and underscore directories.
// The result is sorted by import path.
func (l *Loader) LoadAll() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(l.root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		has, err := hasGoFiles(path)
		if err != nil {
			return err
		}
		if has {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	pkgs := make([]*Package, 0, len(dirs))
	for _, dir := range dirs {
		pkg, err := l.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// hasGoFiles reports whether dir directly contains at least one .go file.
func hasGoFiles(dir string) (bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true, nil
		}
	}
	return false, nil
}

// LoadDir loads and type-checks the package in dir (which must be at
// or under the module root), merging its in-package test files so the
// analyzers see test code too.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	path, err := l.importPathFor(abs)
	if err != nil {
		return nil, err
	}
	if pkg, ok := l.analyzed[path]; ok {
		return pkg, nil
	}
	files, err := l.parseDir(abs, true)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", abs)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	tpkg, err := l.check(path, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	pkg := &Package{Path: path, Dir: abs, Files: files, Types: tpkg, Info: info}
	l.analyzed[path] = pkg
	return pkg, nil
}

// importPathFor maps an absolute directory under the root to its
// module import path.
func (l *Loader) importPathFor(abs string) (string, error) {
	rel, err := filepath.Rel(l.root, abs)
	if err != nil {
		return "", err
	}
	if rel == ".." || strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
		return "", fmt.Errorf("lint: %s is outside module root %s", abs, l.root)
	}
	if rel == "." {
		return l.modPath, nil
	}
	return l.modPath + "/" + filepath.ToSlash(rel), nil
}

// parseDir parses the .go files of one directory. withTests merges
// in-package _test.go files. External test packages (package foo_test)
// are always skipped, because they would form a second package in the
// same directory: no rule sees internal/fsp/alloc_test.go,
// internal/obs/determinism_test.go or internal/silicon/limit_test.go,
// and an Example declared in such a file roots nothing for deadcode.
func (l *Loader) parseDir(dir string, withTests bool) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var filenames []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") {
			continue
		}
		if !withTests && strings.HasSuffix(name, "_test.go") {
			continue
		}
		filenames = append(filenames, name)
	}
	sort.Strings(filenames)
	var files []*ast.File
	pkgName := ""
	for _, name := range filenames {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		n := f.Name.Name
		if strings.HasSuffix(n, "_test") {
			continue // external test package file
		}
		if pkgName == "" {
			pkgName = n
		} else if n != pkgName {
			return nil, fmt.Errorf("lint: %s: mixed packages %q and %q", dir, pkgName, n)
		}
		files = append(files, f)
	}
	return files, nil
}

// check type-checks files as package path using the loader to resolve
// imports. Type errors abort: the tree under analysis must compile.
func (l *Loader) check(path string, files []*ast.File, info *types.Info) (*types.Package, error) {
	var typeErrs []error
	conf := types.Config{
		Importer: l,
		Error: func(err error) {
			typeErrs = append(typeErrs, err)
		},
	}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if len(typeErrs) > 0 {
		return nil, typeErrs[0]
	}
	if err != nil {
		return nil, err
	}
	return tpkg, nil
}

// Import implements types.Importer. Module-internal paths load from
// source (export form, without test files); anything else resolves as
// standard library.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		return l.importModule(path)
	}
	return l.importStd(path)
}

// ImportFrom implements types.ImporterFrom; the module has no vendor
// directory, so resolution ignores the importing directory.
func (l *Loader) ImportFrom(path, _ string, _ types.ImportMode) (*types.Package, error) {
	return l.Import(path)
}

// importModule type-checks a module-internal dependency in its export
// form (no test files), memoized.
func (l *Loader) importModule(path string) (*types.Package, error) {
	if tpkg, ok := l.deps[path]; ok {
		return tpkg, nil
	}
	if l.checking[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.checking[path] = true
	defer delete(l.checking, path)

	rel := strings.TrimPrefix(path, l.modPath)
	rel = strings.TrimPrefix(rel, "/")
	dir := filepath.Join(l.root, filepath.FromSlash(rel))
	files, err := l.parseDir(dir, false)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files for import %q in %s", path, dir)
	}
	tpkg, err := l.check(path, files, &types.Info{})
	if err != nil {
		return nil, err
	}
	l.deps[path] = tpkg
	return tpkg, nil
}

// importStd resolves a standard-library import: first via the
// toolchain's compiled export data, then — on toolchains that do not
// ship it — by type-checking the stdlib package from GOROOT source.
func (l *Loader) importStd(path string) (*types.Package, error) {
	pkg, gcErr := l.stdGC.Import(path)
	if gcErr == nil {
		return pkg, nil
	}
	if l.stdSrc == nil {
		// The source importer resolves through go/build; disabling
		// cgo keeps packages like net on their pure-Go files.
		build.Default.CgoEnabled = false
		l.stdSrc = importer.ForCompiler(l.fset, "source", nil)
	}
	pkg, srcErr := l.stdSrc.Import(path)
	if srcErr != nil {
		return nil, fmt.Errorf("lint: importing %q: %v (export data: %v)", path, srcErr, gcErr)
	}
	return pkg, nil
}
