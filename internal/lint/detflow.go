package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
)

// DetFlow is the determinism rule. Every stochastic draw in the
// simulator must come from the seeded, splittable generator in
// internal/rng, and every "time" in it is simulated time, so the
// invariant for bit-reproducible experiments (DESIGN.md §3) is: no
// source of entropy the seed does not control. The sinks are wall-clock
// and environment reads (bannedFuncs) and the ambient-randomness
// packages (bannedImports); the blessed RNG package is exempt. DetFlow
// reports a sink use two ways:
//
//   - by flow: it walks the cross-package call graph from every
//     simulation entry point — exported non-test functions and package
//     initialization of the Config.SimPackages — and flags each
//     function whose chain reaches a sink, through any helper in any
//     package (one finding per function and sink, at its first use);
//   - directly: any other use anywhere in a simulation package, test
//     files and unreachable helpers included. A banned import counts as
//     a use by the package's init node.
//
// A use that is both direct and reached keeps the chain message.
// Intentional edges (CLI wiring, crash-point arming, I/O deadlines)
// carry a //lint:ignore detflow <reason> directive at the sink line.
var DetFlow = &Analyzer{
	Name:       "detflow",
	Doc:        "forbid wall-clock, environment and ambient-RNG use in simulation packages and call chains from their entry points to it",
	Severity:   SeverityError,
	RunProgram: runDetFlow,
}

// bannedFuncs maps package path → function names whose use breaks
// seeded reproducibility.
var bannedFuncs = map[string]map[string]bool{
	"time": {"Now": true, "Since": true, "Until": true},
	"os":   {"Getenv": true, "LookupEnv": true, "Environ": true},
}

// bannedImports are the ambient-randomness packages: math/rand streams
// are not stable across Go releases, and crypto/rand is entropy the
// seed does not control.
var bannedImports = map[string]bool{
	"math/rand":    true,
	"math/rand/v2": true,
	"crypto/rand":  true,
}

func runDetFlow(p *ProgramPass) {
	graph := p.Graph

	// Deterministic BFS over sorted entries and sorted adjacency:
	// first-visit parents give one stable example chain per node.
	visited := map[string]bool{}
	parent := map[string]string{}
	var queue []string
	for _, e := range simEntries(p, graph) {
		if graph.Nodes[e] != nil && !visited[e] {
			visited[e] = true
			queue = append(queue, e)
		}
	}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		for _, edge := range graph.Nodes[id].Edges {
			if visited[edge.Callee] || graph.Nodes[edge.Callee] == nil {
				continue
			}
			visited[edge.Callee] = true
			parent[edge.Callee] = id
			queue = append(queue, edge.Callee)
		}
	}

	// Packages, files and nodes are walked in source order, so the
	// first use of a (function, sink) pair is the one that carries the
	// chain.
	chained := map[string]bool{}
	for _, pkg := range p.Pkgs {
		if pkg.Path == p.Config.RNGPackage {
			continue
		}
		sim := p.Config.isSimPackage(pkg.Path)
		use := func(pos token.Pos, sink string) {
			fn := graph.NodeAt(pos)
			if fn == "" {
				fn = initID(pkg.Path) // package scope: imports, type declarations
			}
			key := fn + " " + sink
			switch {
			case visited[fn] && !chained[key]:
				chained[key] = true
				p.Reportf(pos,
					"determinism taint: %s reaches %s (chain %s); fix the helper or annotate the sink with //lint:ignore detflow <reason>",
					fn, sink, taintChain(parent, fn))
			case sim:
				p.Reportf(pos,
					"simulation package uses %s: wall-clock, environment and ambient-RNG reads break seeded reproducibility; draw from %s",
					sink, p.Config.RNGPackage)
			}
		}
		for _, file := range pkg.Files {
			for _, imp := range file.Imports {
				if path, err := strconv.Unquote(imp.Path.Value); err == nil && bannedImports[path] {
					use(imp.Pos(), path)
				}
			}
			ast.Inspect(file, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				ident, ok := sel.X.(*ast.Ident)
				if !ok {
					return true
				}
				pkgName, ok := pkg.Info.Uses[ident].(*types.PkgName)
				if !ok {
					return true
				}
				path := pkgName.Imported().Path()
				if bannedFuncs[path][sel.Sel.Name] {
					use(sel.Pos(), path+"."+sel.Sel.Name)
				} else if bannedImports[path] {
					use(sel.Pos(), path)
				}
				return true
			})
		}
	}
}

// simEntries returns the sorted, deduplicated entry set: package
// initialization plus every exported non-test function/method of the
// simulation packages.
func simEntries(p *ProgramPass, graph *CallGraph) []string {
	var entries []string
	for _, pkg := range p.Pkgs {
		if p.Config.isSimPackage(pkg.Path) {
			entries = append(entries, initID(pkg.Path))
		}
	}
	for _, id := range graph.SortedIDs() {
		n := graph.Nodes[id]
		if n.Exported && !n.TestOnly && p.Config.isSimPackage(n.Pkg) {
			entries = append(entries, id)
		}
	}
	sort.Strings(entries)
	return entries
}

// taintChain renders the example path entry -> ... -> fn recorded by
// the BFS parent map.
func taintChain(parent map[string]string, fn string) string {
	chain := []string{fn}
	for {
		prev, ok := parent[fn]
		if !ok {
			break
		}
		chain = append(chain, prev)
		fn = prev
	}
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	return strings.Join(chain, " -> ")
}
