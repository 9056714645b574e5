package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// The call-graph builder turns a set of analyzed packages into a
// conservative whole-program call graph for the program rules (detflow,
// deadcode). Three edge kinds are modeled:
//
//   - call:     a statically resolved call to a named function/method;
//   - ref:      a reference to a function value without calling it —
//     method values, callbacks handed to another layer, assignments
//     into function-typed variables. The referenced function may be
//     called later, so the edge is kept (conservative over-approximation);
//   - dispatch: a call through an interface method, fanned out to the
//     method of every named type in the program implementing that
//     interface.
//
// Function literals do not get their own nodes: a closure's body is
// attributed to the function (or package initializer) that lexically
// contains it, which is where its captured environment lives and the
// only place a reviewer can annotate. Package-level variable
// initializers and explicit init functions fold into one pseudo-node
// per package, "<path>.init", because package initialization runs in
// every process importing the package. Those of _test.go files fold
// into a test-only "<path>.init_test" instead: only the test binary
// runs them.
//
// The graph is deterministic: nodes and adjacency lists are sorted, so
// traversals (and therefore detflow's findings and example chains) are
// byte-identical across runs.

// EdgeKind classifies a call-graph edge.
type EdgeKind int

// Edge kinds.
const (
	EdgeCall EdgeKind = iota
	EdgeRef
	EdgeDispatch
)

func (k EdgeKind) String() string {
	switch k {
	case EdgeCall:
		return "call"
	case EdgeRef:
		return "ref"
	case EdgeDispatch:
		return "dispatch"
	default:
		return "invalid"
	}
}

// Edge is one outgoing call-graph edge.
type Edge struct {
	Callee string // callee node ID
	Kind   EdgeKind
	Pos    token.Pos // call or reference site
}

// Node is one function (or package-init pseudo-function) of the graph.
type Node struct {
	// ID is the stable identifier: "pkg.Func", "pkg.(*Recv).Method",
	// "pkg.(Recv).Method" or "pkg.init".
	ID string
	// Pkg is the defining package's import path.
	Pkg string
	// Fn is the type-checker object (nil for init pseudo-nodes and
	// interface-method nodes without bodies in the program).
	Fn *types.Func
	// Pos is the declaration position (NoPos for init pseudo-nodes).
	Pos token.Pos
	// Exported reports whether the function and (for methods) its
	// receiver type are exported.
	Exported bool
	// TestOnly reports whether the declaration lives in a _test.go
	// file.
	TestOnly bool
	// Edges are the outgoing edges, sorted by (Callee, Kind, Pos) and
	// deduplicated by (Callee, Kind).
	Edges []Edge
}

// CallGraph is the whole-program graph plus the per-file function
// extent index used to attribute arbitrary positions to functions.
type CallGraph struct {
	Nodes map[string]*Node

	fset    *token.FileSet
	extents map[string][]extent // filename → sorted decl extents
}

type extent struct {
	start, end token.Pos
	id         string
}

// FuncID renders the stable node identifier of fn.
func FuncID(fn *types.Func) string {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path() + "."
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return pkg + fn.Name()
	}
	t := sig.Recv().Type()
	ptr := ""
	if p, okp := t.(*types.Pointer); okp {
		t = p.Elem()
		ptr = "*"
	}
	name := "?"
	if n, okn := t.(*types.Named); okn {
		name = n.Obj().Name()
	}
	return pkg + "(" + ptr + name + ")." + fn.Name()
}

// initID is the pseudo-node ID of a package's initialization.
func initID(pkgPath string) string { return pkgPath + ".init" }

// fileInitID returns the init pseudo-node that file's var initializers
// and init functions fold into, and whether file is a _test.go file.
func fileInitID(fset *token.FileSet, file *ast.File, pkgPath string) (string, bool) {
	if strings.HasSuffix(fset.Position(file.Pos()).Filename, "_test.go") {
		return pkgPath + ".init_test", true
	}
	return initID(pkgPath), false
}

// BuildCallGraph constructs the conservative call graph over pkgs.
func BuildCallGraph(fset *token.FileSet, pkgs []*Package) *CallGraph {
	g := &CallGraph{
		Nodes:   map[string]*Node{},
		fset:    fset,
		extents: map[string][]extent{},
	}
	named := collectNamedTypes(pkgs)

	// Pass 1: declare nodes so extents and exportedness are known
	// before edges resolve.
	for _, pkg := range pkgs {
		g.ensureNode(initID(pkg.Path), pkg.Path, nil, token.NoPos, false, false)
		for _, file := range pkg.Files {
			initNode, testOnly := fileInitID(fset, file, pkg.Path)
			g.ensureNode(initNode, pkg.Path, nil, token.NoPos, false, testOnly)
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					fn, ok := pkg.Info.Defs[d.Name].(*types.Func)
					if !ok {
						continue
					}
					if d.Name.Name == "init" && d.Recv == nil {
						g.addExtent(d, initNode)
						continue
					}
					id := FuncID(fn)
					g.ensureNode(id, pkg.Path, fn, d.Pos(), declExported(fn), testOnly)
					g.addExtent(d, id)
				case *ast.GenDecl:
					// Package-level var initializers run at package
					// init: their extents attribute to the pseudo-node.
					if d.Tok != token.VAR {
						continue
					}
					for _, spec := range d.Specs {
						if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Values) > 0 {
							g.addExtent(vs, initNode)
						}
					}
				}
			}
		}
	}

	// Pass 2: edges.
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			initNode, _ := fileInitID(fset, file, pkg.Path)
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Body == nil {
						continue
					}
					id := initNode
					if !(d.Name.Name == "init" && d.Recv == nil) {
						if fn, ok := pkg.Info.Defs[d.Name].(*types.Func); ok {
							id = FuncID(fn)
						}
					}
					g.addEdgesFrom(id, d.Body, pkg, named)
				case *ast.GenDecl:
					if d.Tok != token.VAR {
						continue
					}
					for _, spec := range d.Specs {
						vs, ok := spec.(*ast.ValueSpec)
						if !ok {
							continue
						}
						for _, v := range vs.Values {
							g.addEdgesFrom(initNode, v, pkg, named)
						}
					}
				}
			}
		}
	}

	for _, n := range g.Nodes {
		sortEdges(n)
	}
	for file := range g.extents {
		ex := g.extents[file]
		sort.Slice(ex, func(i, j int) bool { return ex[i].start < ex[j].start })
		g.extents[file] = ex
	}
	return g
}

// declExported reports whether fn is callable from outside its package
// without reflection: exported name and, for methods, exported
// receiver type.
func declExported(fn *types.Func) bool {
	if !fn.Exported() {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return true
	}
	t := sig.Recv().Type()
	if p, okp := t.(*types.Pointer); okp {
		t = p.Elem()
	}
	if n, okn := t.(*types.Named); okn {
		return n.Obj().Exported()
	}
	return true
}

func (g *CallGraph) ensureNode(id, pkgPath string, fn *types.Func, pos token.Pos, exported, testOnly bool) *Node {
	if n, ok := g.Nodes[id]; ok {
		return n
	}
	n := &Node{ID: id, Pkg: pkgPath, Fn: fn, Pos: pos, Exported: exported, TestOnly: testOnly}
	g.Nodes[id] = n
	return n
}

func (g *CallGraph) addExtent(n ast.Node, id string) {
	file := g.fset.Position(n.Pos()).Filename
	g.extents[file] = append(g.extents[file], extent{start: n.Pos(), end: n.End(), id: id})
}

// NodeAt returns the ID of the function whose declaration contains
// pos, or "" when pos is outside every declared function (package
// scope).
func (g *CallGraph) NodeAt(pos token.Pos) string {
	file := g.fset.Position(pos).Filename
	for _, ex := range g.extents[file] {
		if pos >= ex.start && pos < ex.end {
			return ex.id
		}
	}
	return ""
}

// SortedIDs returns every node ID in sorted order.
func (g *CallGraph) SortedIDs() []string {
	ids := make([]string, 0, len(g.Nodes))
	for id := range g.Nodes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

func sortEdges(n *Node) {
	sort.Slice(n.Edges, func(i, j int) bool {
		a, b := n.Edges[i], n.Edges[j]
		if a.Callee != b.Callee {
			return a.Callee < b.Callee
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Pos < b.Pos
	})
	out := n.Edges[:0]
	for _, e := range n.Edges {
		if len(out) > 0 && out[len(out)-1].Callee == e.Callee && out[len(out)-1].Kind == e.Kind {
			continue
		}
		out = append(out, e)
	}
	n.Edges = out
}

// addEdgesFrom walks body (a function body or an initializer
// expression) and records every resolvable edge out of the node id.
// Nested function literals are folded into id.
func (g *CallGraph) addEdgesFrom(id string, body ast.Node, pkg *Package, named []types.Type) {
	node := g.Nodes[id]
	// callees collects the Fun expression of every call, and selSels
	// the Sel ident of every selector, so the identifier walk can tell
	// a genuine standalone function reference from the name inside a
	// call or selector it already handled.
	callees := map[ast.Expr]bool{}
	selSels := map[*ast.Ident]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.CallExpr:
			callees[unparen(e.Fun)] = true
		case *ast.SelectorExpr:
			selSels[e.Sel] = true
		}
		return true
	})

	ast.Inspect(body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.CallExpr:
			g.addCallEdges(node, e, pkg, named)
		case *ast.Ident:
			// Reference (not call) of a named function: callback,
			// assignment into a function-typed variable.
			if callees[ast.Expr(e)] || selSels[e] {
				return true
			}
			if fn, ok := pkg.Info.Uses[e].(*types.Func); ok {
				node.Edges = append(node.Edges, Edge{Callee: FuncID(fn), Kind: EdgeRef, Pos: e.Pos()})
			}
		case *ast.SelectorExpr:
			if callees[ast.Expr(e)] {
				return true // handled as a call; still descend into e.X
			}
			// Method value (x.Foo), method expression (T.Foo) or
			// package-qualified function reference (pkg.Fn).
			if fn, ok := pkg.Info.Uses[e.Sel].(*types.Func); ok {
				node.Edges = append(node.Edges, Edge{Callee: FuncID(fn), Kind: EdgeRef, Pos: e.Pos()})
			}
		}
		return true
	})
}

// addCallEdges resolves one call expression into edges.
func (g *CallGraph) addCallEdges(node *Node, call *ast.CallExpr, pkg *Package, named []types.Type) {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := pkg.Info.Uses[fun].(*types.Func); ok {
			node.Edges = append(node.Edges, Edge{Callee: FuncID(fn), Kind: EdgeCall, Pos: call.Pos()})
		}
	case *ast.SelectorExpr:
		sel, isSelection := pkg.Info.Selections[fun]
		if !isSelection {
			// Package-qualified call (pkg.Fn) or type conversion.
			if fn, ok := pkg.Info.Uses[fun.Sel].(*types.Func); ok {
				node.Edges = append(node.Edges, Edge{Callee: FuncID(fn), Kind: EdgeCall, Pos: call.Pos()})
			}
			return
		}
		fn, ok := sel.Obj().(*types.Func)
		if !ok {
			return // field of function type: dynamic, covered by ref edges
		}
		recv := sel.Recv()
		if iface, isIface := recv.Underlying().(*types.Interface); isIface {
			// Interface dispatch: fan out to every implementation in
			// the program, via the abstract method node for readable
			// chains.
			ifaceID := FuncID(fn)
			ifaceNode := g.ensureNode(ifaceID, node.Pkg, fn, fn.Pos(), false, false)
			node.Edges = append(node.Edges, Edge{Callee: ifaceID, Kind: EdgeCall, Pos: call.Pos()})
			for _, t := range named {
				impl := implementation(t, iface, fn)
				if impl == nil {
					continue
				}
				ifaceNode.Edges = append(ifaceNode.Edges, Edge{Callee: FuncID(impl), Kind: EdgeDispatch, Pos: call.Pos()})
			}
			return
		}
		node.Edges = append(node.Edges, Edge{Callee: FuncID(fn), Kind: EdgeCall, Pos: call.Pos()})
	}
}

// implementation returns t's (or *t's) concrete method for the
// interface method m when t implements iface, nil otherwise. The lookup
// passes m's package, without which an unexported method is never
// found.
func implementation(t types.Type, iface *types.Interface, m *types.Func) *types.Func {
	if types.IsInterface(t) {
		return nil
	}
	pt := types.NewPointer(t)
	if !types.Implements(t, iface) && !types.Implements(pt, iface) {
		return nil
	}
	obj, _, _ := types.LookupFieldOrMethod(pt, true, m.Pkg(), m.Name())
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	return fn
}

// collectNamedTypes gathers every named (non-interface) type declared
// in pkgs, sorted by rendered name for deterministic fan-out order.
func collectNamedTypes(pkgs []*Package) []types.Type {
	var out []types.Type
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() { // Names() is sorted
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			n, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(n) {
				continue
			}
			out = append(out, n)
		}
	}
	return out
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
