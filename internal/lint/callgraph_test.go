package lint

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

// The callgraph fixture is two packages exercising the shapes the
// builder must model: a mutual-recursion cycle, a method value
// (reference edge), an interface whose implementations straddle the
// package boundary (dispatch fan-out), an unexported interface method,
// and a package-level var initializer (init pseudo-node).
const (
	cgA = "repro/internal/lint/testdata/src/callgraph/a"
	cgB = "repro/internal/lint/testdata/src/callgraph/b"
)

func loadCallGraphFixture(t *testing.T) (*Loader, []*Package) {
	t.Helper()
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*Package
	for _, dir := range []string{"callgraph/a", "callgraph/b"} {
		pkg, err := loader.LoadDir(filepath.Join("testdata", "src", dir))
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, pkg)
	}
	return loader, pkgs
}

func TestCallGraphEdges(t *testing.T) {
	loader, pkgs := loadCallGraphFixture(t)
	g := BuildCallGraph(loader.fset, pkgs)

	hasEdge := func(from, to string, kind EdgeKind) bool {
		n := g.Nodes[from]
		if n == nil {
			return false
		}
		for _, e := range n.Edges {
			if e.Callee == to && e.Kind == kind {
				return true
			}
		}
		return false
	}
	cases := []struct {
		from, to string
		kind     EdgeKind
		why      string
	}{
		{cgA + ".Ping", cgA + ".Pong", EdgeCall, "cycle forward edge"},
		{cgA + ".Pong", cgA + ".Ping", EdgeCall, "cycle back edge"},
		{cgA + ".Drive", cgA + ".(Runner).Run", EdgeCall, "interface call targets the abstract method node"},
		{cgA + ".(Runner).Run", cgA + ".(Fast).Run", EdgeDispatch, "dispatch fans out to the local value-receiver impl"},
		{cgA + ".(Runner).Run", cgB + ".(*Slow).Run", EdgeDispatch, "dispatch fans out across the package boundary"},
		{cgA + ".(stepper).step", cgA + ".(walker).step", EdgeDispatch, "dispatch through an unexported interface method"},
		{cgB + ".(*Slow).Run", cgA + ".Ping", EdgeCall, "cross-package call"},
		{cgB + ".Handle", cgB + ".(*Slow).Run", EdgeRef, "method value is a reference, not a call"},
		{cgB + ".init", cgA + ".Ping", EdgeCall, "package-level var initializer folds into the init pseudo-node"},
	}
	for _, c := range cases {
		if !hasEdge(c.from, c.to, c.kind) {
			t.Errorf("missing %s edge %s -> %s (%s)", c.kind, c.from, c.to, c.why)
		}
	}
	// The method value must not be recorded as a call.
	if hasEdge(cgB+".Handle", cgB+".(*Slow).Run", EdgeCall) {
		t.Errorf("method value in %s.Handle wrongly recorded as a call edge", cgB)
	}
}

func TestCallGraphAttribution(t *testing.T) {
	loader, pkgs := loadCallGraphFixture(t)
	g := BuildCallGraph(loader.fset, pkgs)

	// A position inside a declared function attributes to its node.
	ping := g.Nodes[cgA+".Ping"]
	if ping == nil {
		t.Fatalf("node %s.Ping missing", cgA)
	}
	if got := g.NodeAt(ping.Pos); got != cgA+".Ping" {
		t.Errorf("NodeAt(Ping decl) = %q, want %s.Ping", got, cgA)
	}
	// A position inside a package-level var initializer attributes to
	// the init pseudo-node.
	boot := pkgs[1].Types.Scope().Lookup("boot")
	if boot == nil {
		t.Fatal("var boot not found in fixture package b")
	}
	if got := g.NodeAt(boot.Pos()); got != cgB+".init" {
		t.Errorf("NodeAt(var boot) = %q, want %s.init", got, cgB)
	}
	// A package-scope position outside every extent attributes nowhere.
	if got := g.NodeAt(pkgs[0].Files[0].Package); got != "" {
		t.Errorf("NodeAt(package clause) = %q, want \"\"", got)
	}
}

// TestCallGraphDeterministic builds the graph twice from fresh loaders
// and demands identical node sets and adjacency — the flow rules'
// chains and findings inherit their stability from this.
func TestCallGraphDeterministic(t *testing.T) {
	render := func() string {
		loader, pkgs := loadCallGraphFixture(t)
		g := BuildCallGraph(loader.fset, pkgs)
		var b strings.Builder
		for _, id := range g.SortedIDs() {
			fmt.Fprintf(&b, "%s:", id)
			for _, e := range g.Nodes[id].Edges {
				fmt.Fprintf(&b, " %s(%s)", e.Callee, e.Kind)
			}
			b.WriteString("\n")
		}
		return b.String()
	}
	first, second := render(), render()
	if first != second {
		t.Errorf("call graph differs between two fresh builds:\n--- build 1\n%s\n--- build 2\n%s", first, second)
	}
}

// TestDetFlowCrossPackage loads the detflowx fixture pair: the sink
// hides in an unexported interface implementation in helper, reachable
// only through dispatch from the sim package. Analyzing both packages
// must produce exactly one finding, on the sink line, with a chain
// that crosses the boundary: the use is also direct (helper sits in
// the fixture's simulation scope), and the chain message wins.
func TestDetFlowCrossPackage(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	helper, err := loader.LoadDir(filepath.Join("testdata", "src", "detflowx", "helper"))
	if err != nil {
		t.Fatal(err)
	}
	sim, err := loader.LoadDir(filepath.Join("testdata", "src", "detflowx", "sim"))
	if err != nil {
		t.Fatal(err)
	}

	findings := analyze(loader, []*Package{helper, sim}, []*Analyzer{DetFlow}, false)
	if len(findings) != 1 {
		t.Fatalf("want exactly 1 cross-package finding, got %d: %v", len(findings), findings)
	}
	f := findings[0]
	if f.Rule != "detflow" {
		t.Errorf("finding rule = %q, want detflow", f.Rule)
	}
	if filepath.Base(f.File) != "helper.go" {
		t.Errorf("finding lands in %s, want the sink file helper.go", f.File)
	}
	for _, substr := range []string{"time.Now", "sim.Step", "(wall).Next", "(Source).Next"} {
		if !strings.Contains(f.Message, substr) {
			t.Errorf("finding message missing %q:\n%s", substr, f.Message)
		}
	}

	// The helper package alone is a partial program: nothing reaches
	// the sink, so detflow reports the direct use without guessing a
	// chain.
	got := analyze(loader, []*Package{helper}, []*Analyzer{DetFlow}, false)
	if len(got) != 1 || got[0].Line != f.Line || strings.Contains(got[0].Message, "chain") {
		t.Errorf("helper alone: want the one direct-use finding on line %d without a chain, got %v", f.Line, got)
	}
}
