package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// MapOrder flags range-over-map loops whose bodies do order-sensitive
// work — the classic golden-test breaker: Go randomizes map iteration
// order, so any output written, slice accumulated (and left unsorted),
// RNG stream consumed, or channel fed from inside such a loop differs
// run to run. Two folds into a variable declared outside the loop are
// order-sensitive too, and are reported on the loop itself: a compound
// assignment (+=, -=, *=, /=) to a float or string, whose rounding or
// concatenation follows the order, and a plain assignment of an
// expression built from the key, the value or another loop-scoped
// variable, the argmin, argmax or first-match shape, whose winner on a
// tie follows the order.
//
// The safe collect-then-sort idiom is recognized: appending map keys
// or values to a slice is fine when the same function later passes
// that slice to sort.* or slices.Sort*. Order-independent bodies
// (integer sums and counters, flags set to constants, map-to-map
// writes, deletes) are never flagged.
var MapOrder = &Analyzer{
	Name:     "maporder",
	Doc:      "forbid order-sensitive work inside range-over-map loops",
	Severity: SeverityError,
	Run:      runMapOrder,
}

func runMapOrder(pass *Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			default:
				return true
			}
			if body != nil {
				checkMapRanges(pass, body)
			}
			return true
		})
	}
}

// checkMapRanges inspects one function body (excluding nested function
// literals, which get their own visit) for range-over-map loops.
func checkMapRanges(pass *Pass, body *ast.BlockStmt) {
	inspectSameFunc(body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := pass.Info.TypeOf(rng.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		checkMapRangeBody(pass, body, rng)
		return true
	})
}

// inspectSameFunc walks root like ast.Inspect but does not descend
// into nested function literals.
func inspectSameFunc(root ast.Node, f func(ast.Node) bool) {
	ast.Inspect(root, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok && n != root {
			return false
		}
		return f(n)
	})
}

// checkMapRangeBody looks for order-sensitive sinks inside one
// range-over-map body. funcBody is the innermost enclosing function
// body, searched for a later sort of any slice the loop appends to.
func checkMapRangeBody(pass *Pass, funcBody *ast.BlockStmt, rng *ast.RangeStmt) {
	fold := "" // the first order-sensitive fold into an outer variable
	// Unlike the range scan, sink detection does descend into nested
	// function literals: a closure spawned per iteration still runs
	// once per key, in map order.
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.SendStmt:
			pass.Reportf(s.Pos(),
				"channel send inside range over map: receive order becomes nondeterministic; iterate sorted keys instead")
		case *ast.AssignStmt:
			if fold == "" {
				fold = outerFold(pass, rng, s)
			}
			for i, rhs := range s.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || !isBuiltinAppend(pass, call) || i >= len(s.Lhs) {
					continue
				}
				target, ok := s.Lhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				obj := pass.Info.ObjectOf(target)
				if obj == nil || insideNode(obj.Pos(), rng) {
					continue // loop-local accumulator; caught via other sinks
				}
				if sortedAfter(pass, funcBody, rng, obj) {
					continue // collect-then-sort idiom
				}
				pass.Reportf(s.Pos(),
					"append to %q inside range over map without a later sort: element order is nondeterministic; sort %q before use (or iterate sorted keys)",
					target.Name, target.Name)
			}
		case *ast.CallExpr:
			if name, ok := isPrintCall(pass, s); ok {
				pass.Reportf(s.Pos(),
					"%s inside range over map writes output in nondeterministic order; iterate sorted keys instead", name)
				return true
			}
			if name, ok := isOrderedSinkMethod(pass, s); ok {
				pass.Reportf(s.Pos(),
					"%s inside range over map records output in nondeterministic order; iterate sorted keys instead", name)
				return true
			}
			if isRNGDraw(pass, s) {
				pass.Reportf(s.Pos(),
					"RNG draw inside range over map consumes the stream in nondeterministic order; iterate sorted keys instead")
				return true
			}
		}
		return true
	})
	if fold != "" {
		pass.Reportf(rng.Pos(),
			"range over map %s: the result depends on iteration order; iterate sorted keys instead", fold)
	}
}

// outerFold describes s when it folds an expression that reads a
// loop-scoped variable (the key, the value or a local of the body)
// into a variable declared outside rng, in an order-sensitive way:
// a compound assignment to a float or string, or a plain assignment.
// It returns "" otherwise. An append to the target is left to the
// append check.
func outerFold(pass *Pass, rng *ast.RangeStmt, s *ast.AssignStmt) string {
	for i, lhs := range s.Lhs {
		rhs := s.Rhs[0] // one multi-value call feeds every target
		if len(s.Rhs) == len(s.Lhs) {
			rhs = s.Rhs[i]
		}
		target, ok := lhs.(*ast.Ident)
		if !ok {
			continue
		}
		obj, ok := pass.Info.ObjectOf(target).(*types.Var)
		if !ok || insideNode(obj.Pos(), rng) || !readsLoopVar(pass, rng, rhs) {
			continue
		}
		switch s.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
			if b, ok := obj.Type().Underlying().(*types.Basic); ok && b.Info()&(types.IsFloat|types.IsString) != 0 {
				return fmt.Sprintf("folds into %s %q with %s", b.Name(), target.Name, s.Tok)
			}
		case token.ASSIGN:
			if call, ok := rhs.(*ast.CallExpr); !ok || !isBuiltinAppend(pass, call) {
				return fmt.Sprintf("assigns %q from a loop variable", target.Name)
			}
		}
	}
	return ""
}

// readsLoopVar reports whether e reads a variable declared inside rng:
// its key, its value or a local of its body.
func readsLoopVar(pass *Pass, rng *ast.RangeStmt, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && !found {
			if v, ok := pass.Info.Uses[id].(*types.Var); ok && insideNode(v.Pos(), rng) {
				found = true
			}
		}
		return !found
	})
	return found
}

// insideNode reports whether pos falls within n's extent.
func insideNode(pos token.Pos, n ast.Node) bool {
	return pos >= n.Pos() && pos < n.End()
}

// isBuiltinAppend reports whether call invokes the append builtin.
func isBuiltinAppend(pass *Pass, call *ast.CallExpr) bool {
	ident, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.Info.ObjectOf(ident).(*types.Builtin)
	return ok && b.Name() == "append"
}

// isPrintCall recognizes fmt's printing functions (and log's) — any of
// them inside a map range writes output in iteration order.
var printFuncs = map[string]map[string]bool{
	"fmt": {
		"Print": true, "Printf": true, "Println": true,
		"Fprint": true, "Fprintf": true, "Fprintln": true,
	},
	"log": {"Print": true, "Printf": true, "Println": true},
}

func isPrintCall(pass *Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	ident, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	pkgName, ok := pass.Info.Uses[ident].(*types.PkgName)
	if !ok {
		return "", false
	}
	fns, ok := printFuncs[pkgName.Imported().Path()]
	if !ok || !fns[sel.Sel.Name] {
		return "", false
	}
	return pkgName.Imported().Path() + "." + sel.Sel.Name, true
}

// orderedSinkMethods are method names whose calls record ordered
// output: stream writers and the repo's report.Table row builder.
var orderedSinkMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true,
	"WriteRune": true, "AddRow": true,
}

func isOrderedSinkMethod(pass *Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !orderedSinkMethods[sel.Sel.Name] {
		return "", false
	}
	// Must be a method call (selection), not a package function.
	if _, ok := pass.Info.Selections[sel]; !ok {
		return "", false
	}
	return sel.Sel.Name, true
}

// isRNGDraw reports whether call is a method call on the deterministic
// RNG source: consuming the stream in map order reorders every
// downstream draw.
func isRNGDraw(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	selection, ok := pass.Info.Selections[sel]
	if !ok {
		return false
	}
	recv := selection.Recv()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return false
	}
	return named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == rngPackage
}

// sortFuncs lists the stdlib calls that establish a deterministic
// order over their (first) slice argument.
var sortFuncs = map[string]map[string]bool{
	"sort": {
		"Strings": true, "Ints": true, "Float64s": true,
		"Slice": true, "SliceStable": true, "Sort": true, "Stable": true,
	},
	"slices": {"Sort": true, "SortFunc": true, "SortStableFunc": true},
}

// sortedAfter reports whether obj is passed to a sort call positioned
// after the range loop within the same function body.
func sortedAfter(pass *Pass, funcBody *ast.BlockStmt, rng *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(funcBody, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		ident, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pkgName, ok := pass.Info.Uses[ident].(*types.PkgName)
		if !ok {
			return true
		}
		fns, ok := sortFuncs[pkgName.Imported().Path()]
		if !ok || !fns[sel.Sel.Name] {
			return true
		}
		if argMentions(pass, call.Args[0], obj) {
			found = true
			return false
		}
		return true
	})
	return found
}

// argMentions unwraps &x, conversions like byFreq(x), and slicing
// x[1:] to decide whether a sort argument refers to obj.
func argMentions(pass *Pass, arg ast.Expr, obj types.Object) bool {
	switch e := arg.(type) {
	case *ast.Ident:
		return pass.Info.ObjectOf(e) == obj
	case *ast.UnaryExpr:
		return e.Op == token.AND && argMentions(pass, e.X, obj)
	case *ast.CallExpr:
		return len(e.Args) == 1 && argMentions(pass, e.Args[0], obj)
	case *ast.SliceExpr:
		return argMentions(pass, e.X, obj)
	case *ast.ParenExpr:
		return argMentions(pass, e.X, obj)
	}
	return false
}
