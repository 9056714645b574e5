package lint

import (
	"go/ast"
	"go/types"
)

// HotPath checks functions annotated //atm:hotpath — the per-trial
// CPM/DPLL/PDN step path and the obs/guard disabled fast paths, whose
// 0 allocs/op the benchmarks measure at run time and this rule holds
// statically — for allocation- and dispatch-inducing constructs:
//
//   - function literals (closures escape to the heap when captured);
//   - go statements (goroutine spawn) and defer (scheduling cost),
//     except the pervasive `defer mu.Unlock()` on sync mutexes, which
//     the compiler open-codes and every nil-safe handle relies on;
//   - range over a map (hashes every key, nondeterministic order);
//   - fmt calls and strings.Builder methods (both allocate);
//   - interface conversions — explicit, argument boxing at call sites,
//     assignment or return of a concrete value into an interface;
//   - append to a local slice not pre-sized with make(len, cap).
//
// The annotation sits in the function's doc comment; a finding is
// silenced the usual way with //lint:ignore hotpath <reason> when the
// construct is deliberate (e.g. a cold error path).
var HotPath = &Analyzer{
	Name:     "hotpath",
	Doc:      "forbid allocation- and dispatch-inducing constructs in //atm:hotpath functions",
	Severity: SeverityWarn,
	Run:      runHotPath,
}

// hotPathDirective marks a function as hot-path-checked.
const hotPathDirective = "//atm:hotpath"

func runHotPath(pass *Pass) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hasDirective(fd.Doc, hotPathDirective) {
				continue
			}
			checkHotFunc(pass, fd)
		}
	}
}

// hasDirective reports whether a comment group contains the given
// machine directive as a whole comment line.
func hasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if c.Text == directive {
			return true
		}
	}
	return false
}

func checkHotFunc(pass *Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(s.Pos(), "hot path: function literal may escape to the heap")
			return false // the literal itself is the finding; don't double-report its body
		case *ast.GoStmt:
			pass.Reportf(s.Pos(), "hot path: go statement spawns a goroutine")
		case *ast.DeferStmt:
			if !isMutexUnlockDefer(pass, s) {
				pass.Reportf(s.Pos(), "hot path: defer schedules a deferred call")
			}
		case *ast.RangeStmt:
			if t := pass.Info.TypeOf(s.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					pass.Reportf(s.Pos(), "hot path: range over map hashes every key in nondeterministic order")
				}
			}
		case *ast.CallExpr:
			checkHotCall(pass, fd, s)
		case *ast.AssignStmt:
			for i, rhs := range s.Rhs {
				if i < len(s.Lhs) {
					checkBoxing(pass, s.Lhs[i], rhs, "assignment")
				}
			}
		case *ast.ReturnStmt:
			checkHotReturn(pass, fd, s)
		}
		return true
	})
}

// isMutexUnlockDefer recognizes `defer x.Unlock()` / `defer
// x.RUnlock()` on a sync.Mutex or sync.RWMutex receiver.
func isMutexUnlockDefer(pass *Pass, d *ast.DeferStmt) bool {
	sel, ok := d.Call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Unlock" && sel.Sel.Name != "RUnlock") {
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
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "sync"
}

// checkHotCall flags fmt calls, strings.Builder methods, explicit
// interface conversions, and call-argument boxing.
func checkHotCall(pass *Pass, fd *ast.FuncDecl, call *ast.CallExpr) {
	// Explicit conversion I(x)?
	if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 && isInterface(tv.Type) && isConcrete(pass.Info.TypeOf(call.Args[0])) {
			pass.Reportf(call.Pos(), "hot path: conversion boxes %s into interface %s",
				types.TypeString(pass.Info.TypeOf(call.Args[0]), types.RelativeTo(pass.Pkg)),
				types.TypeString(tv.Type, types.RelativeTo(pass.Pkg)))
		}
		return
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		// fmt.* call?
		if ident, ok := sel.X.(*ast.Ident); ok {
			if pkgName, ok := pass.Info.Uses[ident].(*types.PkgName); ok && pkgName.Imported().Path() == "fmt" {
				pass.Reportf(call.Pos(), "hot path: fmt.%s allocates (reflect-based formatting)", sel.Sel.Name)
				return
			}
		}
		// strings.Builder method?
		if selection, ok := pass.Info.Selections[sel]; ok {
			recv := selection.Recv()
			if ptr, ok := recv.(*types.Pointer); ok {
				recv = ptr.Elem()
			}
			if named, ok := recv.(*types.Named); ok && named.Obj().Pkg() != nil &&
				named.Obj().Pkg().Path() == "strings" && named.Obj().Name() == "Builder" {
				pass.Reportf(call.Pos(), "hot path: strings.Builder.%s allocates", sel.Sel.Name)
				return
			}
		}
	}
	// append to an un-presized local slice?
	if isBuiltinAppend(pass, call) {
		checkHotAppend(pass, fd, call)
		return
	}
	// Argument boxing into interface parameters.
	funT := pass.Info.TypeOf(call.Fun)
	if funT == nil {
		return
	}
	sig, ok := funT.Underlying().(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		var param types.Type
		switch {
		case sig.Variadic() && i >= sig.Params().Len()-1:
			slice, ok := sig.Params().At(sig.Params().Len() - 1).Type().(*types.Slice)
			if !ok {
				continue // s... spread of a named slice type
			}
			param = slice.Elem()
		case i < sig.Params().Len():
			param = sig.Params().At(i).Type()
		default:
			continue
		}
		if isInterface(param) && isConcrete(pass.Info.TypeOf(arg)) {
			pass.Reportf(arg.Pos(), "hot path: argument boxes %s into interface %s",
				types.TypeString(pass.Info.TypeOf(arg), types.RelativeTo(pass.Pkg)),
				types.TypeString(param, types.RelativeTo(pass.Pkg)))
		}
	}
}

// checkHotReturn flags concrete values returned through interface
// results.
func checkHotReturn(pass *Pass, fd *ast.FuncDecl, ret *ast.ReturnStmt) {
	if fd.Type.Results == nil {
		return
	}
	var resultTypes []types.Type
	for _, field := range fd.Type.Results.List {
		t := pass.Info.TypeOf(field.Type)
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		for i := 0; i < n; i++ {
			resultTypes = append(resultTypes, t)
		}
	}
	if len(ret.Results) != len(resultTypes) {
		return // bare return or single multi-value call
	}
	for i, res := range ret.Results {
		if isInterface(resultTypes[i]) && isConcrete(pass.Info.TypeOf(res)) {
			pass.Reportf(res.Pos(), "hot path: return boxes %s into interface %s",
				types.TypeString(pass.Info.TypeOf(res), types.RelativeTo(pass.Pkg)),
				types.TypeString(resultTypes[i], types.RelativeTo(pass.Pkg)))
		}
	}
}

// checkBoxing flags a concrete rhs assigned into an interface-typed
// lhs. lhs may be nil (handled by the caller's own target check).
func checkBoxing(pass *Pass, lhs, rhs ast.Expr, context string) {
	if lhs == nil {
		return
	}
	lt := pass.Info.TypeOf(lhs)
	rt := pass.Info.TypeOf(rhs)
	if isInterface(lt) && isConcrete(rt) {
		pass.Reportf(rhs.Pos(), "hot path: %s boxes %s into interface %s", context,
			types.TypeString(rt, types.RelativeTo(pass.Pkg)),
			types.TypeString(lt, types.RelativeTo(pass.Pkg)))
	}
}

// checkHotAppend flags append into a slice variable declared in this
// function without a capacity-carrying make. Appends to parameters,
// fields or package state are the caller's sizing problem and skipped.
func checkHotAppend(pass *Pass, fd *ast.FuncDecl, call *ast.CallExpr) {
	if len(call.Args) == 0 {
		return
	}
	target, ok := call.Args[0].(*ast.Ident)
	if !ok {
		return
	}
	obj := pass.Info.ObjectOf(target)
	if obj == nil || !insideNode(obj.Pos(), fd) {
		return
	}
	if madeWithCapacity(pass, fd, obj) {
		return
	}
	pass.Reportf(call.Pos(), "hot path: append to %q, which was not pre-sized with make(len, cap), may reallocate",
		target.Name)
}

// madeWithCapacity reports whether obj is initialized somewhere in fd
// by a make call carrying an explicit capacity argument.
func madeWithCapacity(pass *Pass, fd *ast.FuncDecl, obj types.Object) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		assign, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range assign.Lhs {
			ident, ok := lhs.(*ast.Ident)
			if !ok || pass.Info.ObjectOf(ident) != obj || i >= len(assign.Rhs) {
				continue
			}
			mk, ok := assign.Rhs[i].(*ast.CallExpr)
			if !ok || len(mk.Args) < 3 {
				continue
			}
			if fn, ok := mk.Fun.(*ast.Ident); ok {
				if b, ok := pass.Info.ObjectOf(fn).(*types.Builtin); ok && b.Name() == "make" {
					found = true
				}
			}
		}
		return true
	})
	return found
}

// isInterface reports whether t is a non-nil interface type.
func isInterface(t types.Type) bool {
	if t == nil {
		return false
	}
	return types.IsInterface(t)
}

// isConcrete reports whether t is a non-interface, non-untyped-nil
// type (the cases whose conversion into an interface boxes a value).
func isConcrete(t types.Type) bool {
	if t == nil || types.IsInterface(t) {
		return false
	}
	if basic, ok := t.(*types.Basic); ok && basic.Kind() == types.UntypedNil {
		return false
	}
	return true
}
