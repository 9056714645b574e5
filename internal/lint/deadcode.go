package lint

import (
	"go/ast"
	"go/types"
	"strings"
	"unicode"
	"unicode/utf8"
)

// DeadCode reports every non-test function with a body that no program
// reaches. It walks the call graph from the places a build of the
// module can enter:
//
//   - the main function of every main package;
//   - every package's initialization;
//   - every Example function of an in-package _test.go file, the
//     programs go test compiles, runs and checks as documentation;
//   - methods that implement an interface declared in a package the
//     graph does not cover (the standard library, and in a
//     single-package run any other package), since code outside the
//     graph may call them through it;
//   - methods named Unwrap, Is or As, which errors.Is and errors.As
//     call through interfaces declared inside their bodies.
//
// Being exported roots nothing: the atm facade's functions stay only
// while a command, atmbench or an Example calls them. Only a package
// set that contains a main package is judged: without a program,
// every library function may be some program's entry. A
// function kept on purpose (a reference model tests compare production
// against, a seam a later change will wire) carries a
// //lint:ignore deadcode <reason> directive on the line above its
// declaration.
var DeadCode = &Analyzer{
	Name:       "deadcode",
	Doc:        "forbid non-test functions that no main, package init or Example function reaches",
	Severity:   SeverityWarn,
	RunProgram: runDeadCode,
}

func runDeadCode(p *ProgramPass) {
	var roots []string
	for _, pkg := range p.Pkgs {
		if pkg.Types.Name() == "main" {
			roots = append(roots, pkg.Path+".main")
		}
	}
	if len(roots) == 0 {
		return
	}
	graph := p.Graph
	external := externalInterfaces(p.Pkgs)
	for _, pkg := range p.Pkgs {
		roots = append(roots, initID(pkg.Path))
	}
	for _, id := range graph.SortedIDs() {
		n := graph.Nodes[id]
		if n.Fn == nil {
			continue
		}
		if (n.TestOnly && isExample(n.Fn)) || (!n.TestOnly && externalMethod(n.Fn, external)) {
			roots = append(roots, id)
		}
	}

	reached := map[string]bool{}
	for len(roots) > 0 {
		id := roots[len(roots)-1]
		roots = roots[:len(roots)-1]
		if reached[id] {
			continue
		}
		reached[id] = true
		if n := graph.Nodes[id]; n != nil {
			for _, e := range n.Edges {
				roots = append(roots, e.Callee)
			}
		}
	}

	for _, pkg := range p.Pkgs {
		for _, file := range pkg.Files {
			if strings.HasSuffix(p.Fset.Position(file.Pos()).Filename, "_test.go") {
				continue
			}
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || (fd.Recv == nil && fd.Name.Name == "init") {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok || reached[FuncID(fn)] {
					continue
				}
				p.Reportf(fd.Name.Pos(),
					"dead code: no program reaches %s; delete it or annotate it with //lint:ignore deadcode <reason>",
					FuncID(fn))
			}
		}
	}
}

// isExample reports whether fn, declared in a _test.go file, is one
// go test runs as an example: a function without a receiver named
// Example, or Example followed by a suffix that does not start with a
// lower-case letter (ExampleF, ExampleT_M, Example_suffix).
func isExample(fn *types.Func) bool {
	rest, ok := strings.CutPrefix(fn.Name(), "Example")
	if !ok || fn.Type().(*types.Signature).Recv() != nil {
		return false
	}
	r, _ := utf8.DecodeRuneInString(rest)
	return rest == "" || !unicode.IsLower(r)
}

// externalMethod reports whether fn is a concrete method that code
// outside the graph may call: its name is Unwrap, Is or As, or its
// receiver type implements one of the external interfaces that
// declare a method of its name.
func externalMethod(fn *types.Func, external map[string][]*types.Interface) bool {
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil || types.IsInterface(sig.Recv().Type()) {
		return false
	}
	switch fn.Name() {
	case "Unwrap", "Is", "As":
		return true
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	for _, iface := range external[fn.Name()] {
		if types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface) {
			return true
		}
	}
	return false
}

// externalInterfaces indexes by method name the predeclared error and
// every interface declared at package scope of a package the analyzed
// packages import, directly or not, that is not itself analyzed.
func externalInterfaces(pkgs []*Package) map[string][]*types.Interface {
	analyzed := map[string]bool{}
	for _, pkg := range pkgs {
		analyzed[pkg.Path] = true
	}
	out := map[string][]*types.Interface{}
	add := func(iface *types.Interface) {
		for i := 0; i < iface.NumMethods(); i++ {
			name := iface.Method(i).Name()
			out[name] = append(out[name], iface)
		}
	}
	add(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	seen := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(tp *types.Package) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		for _, imp := range tp.Imports() {
			visit(imp)
		}
		if analyzed[tp.Path()] {
			return
		}
		scope := tp.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() > 0 {
				continue // generic: Implements needs an instantiation
			}
			if iface, ok := tn.Type().Underlying().(*types.Interface); ok && iface.IsMethodSet() {
				add(iface)
			}
		}
	}
	for _, pkg := range pkgs {
		visit(pkg.Types)
	}
	return out
}
