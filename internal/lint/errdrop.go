package lint

import (
	"go/ast"
	"go/types"
)

// ErrDrop polices discarded error returns in the operator-facing
// layers — cmd/ and internal/fsp — where a swallowed error means a
// silently wrong table, a half-written CSV, or a service-processor
// session that dies without a trace. Three shapes are flagged:
//
//	f()          // bare call, error unchecked
//	defer f()    // deferred call, error unchecked
//	_ = f()      // error explicitly discarded
//
// fmt.Print/Printf/Println, fmt.Fprint* to os.Stdout/os.Stderr (CLI
// chatter with nowhere to report a failure) and methods on
// strings.Builder / bytes.Buffer (documented never to return errors)
// are allowlisted.
var ErrDrop = &Analyzer{
	Name:     "errdrop",
	Doc:      "forbid discarded error returns in cmd/ and internal/fsp",
	Severity: SeverityError,
	Run:      runErrDrop,
}

func runErrDrop(pass *Pass) {
	if !isErrPackage(pass.Pkg.Path()) {
		return
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.ExprStmt:
				if call, ok := s.X.(*ast.CallExpr); ok {
					checkDroppedCall(pass, call, "unchecked")
				}
			case *ast.DeferStmt:
				checkDroppedCall(pass, s.Call, "dropped by defer")
			case *ast.GoStmt:
				checkDroppedCall(pass, s.Call, "dropped by go statement")
			case *ast.AssignStmt:
				checkBlankErrAssign(pass, s)
			}
			return true
		})
	}
}

// checkDroppedCall reports a call whose error result nobody receives.
func checkDroppedCall(pass *Pass, call *ast.CallExpr, how string) {
	if !returnsError(pass, call) || errAllowlisted(pass, call) {
		return
	}
	pass.Reportf(call.Pos(), "error returned by %s %s: handle it or discard with an annotated _ =",
		calleeString(call), how)
}

// checkBlankErrAssign reports `_ = f()` style explicit discards of an
// error-typed value.
func checkBlankErrAssign(pass *Pass, s *ast.AssignStmt) {
	report := func(pos ast.Expr) {
		pass.Reportf(pos.Pos(), "error discarded with blank assignment: handle it or annotate with //lint:ignore errdrop <reason>")
	}
	if len(s.Rhs) == 1 && len(s.Lhs) > 1 {
		// n-ary result: _ positions line up with the call's tuple.
		call, ok := s.Rhs[0].(*ast.CallExpr)
		if !ok || errAllowlisted(pass, call) {
			return
		}
		tuple, ok := pass.Info.TypeOf(call).(*types.Tuple)
		if !ok || tuple.Len() != len(s.Lhs) {
			return
		}
		for i, lhs := range s.Lhs {
			if isBlank(lhs) && isErrorType(tuple.At(i).Type()) {
				report(lhs)
			}
		}
		return
	}
	for i, lhs := range s.Lhs {
		if !isBlank(lhs) || i >= len(s.Rhs) {
			continue
		}
		if call, ok := s.Rhs[i].(*ast.CallExpr); ok && errAllowlisted(pass, call) {
			continue
		}
		if isErrorType(pass.Info.TypeOf(s.Rhs[i])) {
			report(lhs)
		}
	}
}

func isBlank(e ast.Expr) bool {
	ident, ok := e.(*ast.Ident)
	return ok && ident.Name == "_"
}

// returnsError reports whether any of the call's results is an error.
func returnsError(pass *Pass, call *ast.CallExpr) bool {
	t := pass.Info.TypeOf(call)
	if t == nil {
		return false
	}
	if tuple, ok := t.(*types.Tuple); ok {
		for i := 0; i < tuple.Len(); i++ {
			if isErrorType(tuple.At(i).Type()) {
				return true
			}
		}
		return false
	}
	return isErrorType(t)
}

var errorType = types.Universe.Lookup("error").Type()

func isErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, errorType)
}

// errAllowlisted exempts printing to the standard streams and
// never-erroring builders. fmt.Fprint* to any other writer (a file, a
// connection) stays flagged: those errors are real.
var allowedFmtFuncs = map[string]bool{"Print": true, "Printf": true, "Println": true}
var stdStreamFmtFuncs = map[string]bool{"Fprint": true, "Fprintf": true, "Fprintln": true}

func errAllowlisted(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if ident, ok := sel.X.(*ast.Ident); ok {
		if pkgName, ok := pass.Info.Uses[ident].(*types.PkgName); ok {
			if pkgName.Imported().Path() != "fmt" {
				return false
			}
			if allowedFmtFuncs[sel.Sel.Name] {
				return true
			}
			return stdStreamFmtFuncs[sel.Sel.Name] && len(call.Args) > 0 &&
				isStdStream(pass, call.Args[0])
		}
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
	switch named.Obj().Pkg().Path() + "." + named.Obj().Name() {
	case "strings.Builder", "bytes.Buffer":
		return true
	}
	return false
}

// isStdStream reports whether e is the os.Stdout or os.Stderr selector.
func isStdStream(pass *Pass, e ast.Expr) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Stdout" && sel.Sel.Name != "Stderr") {
		return false
	}
	ident, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pkgName, ok := pass.Info.Uses[ident].(*types.PkgName)
	return ok && pkgName.Imported().Path() == "os"
}

// calleeString renders the called expression for the finding message.
func calleeString(call *ast.CallExpr) string {
	return types.ExprString(call.Fun)
}
