package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// UnitSafety guards the internal/units type discipline at the two
// places Go's own type system lets dimensions leak:
//
//  1. direct conversion between distinct unit types — MHz(v) compiles
//     for a Volt v because both share an underlying float64, silently
//     transmuting volts into megahertz;
//  2. additive arithmetic on float64-stripped values of distinct unit
//     types — float64(volts) + float64(ps) is dimensionally
//     meaningless, while products and quotients legitimately change
//     dimension (V·A→W) and are left alone.
//
// The units package itself is exempt: it defines the types and their
// blessed conversions.
var UnitSafety = &Analyzer{
	Name:     "unitsafety",
	Doc:      "forbid cross-unit conversions and additive mixing of stripped units",
	Severity: SeverityWarn,
	Run:      runUnitSafety,
}

func runUnitSafety(pass *Pass) {
	if pass.Pkg.Path() == unitsPackage {
		return
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch e := n.(type) {
			case *ast.CallExpr:
				checkUnitConversion(pass, e)
			case *ast.BinaryExpr:
				checkStrippedMix(pass, e)
			}
			return true
		})
	}
}

// checkUnitConversion flags T1(x) where T1 and x's type are distinct
// unit types.
func checkUnitConversion(pass *Pass, call *ast.CallExpr) {
	if len(call.Args) != 1 {
		return
	}
	tv, ok := pass.Info.Types[call.Fun]
	if !ok || !tv.IsType() {
		return
	}
	dst := unitTypeName(pass, tv.Type)
	if dst == "" {
		return
	}
	src := unitTypeName(pass, pass.Info.TypeOf(call.Args[0]))
	if src == "" || src == dst {
		return
	}
	pass.Reportf(call.Pos(),
		"conversion %s(...) applied to a %s value transmutes units; convert through an explicit physical relation instead",
		dst, src)
}

// checkStrippedMix flags a + or - whose operands are float64/float32
// conversions of distinct unit types.
func checkStrippedMix(pass *Pass, bin *ast.BinaryExpr) {
	if bin.Op != token.ADD && bin.Op != token.SUB {
		return
	}
	x := strippedUnit(pass, bin.X)
	y := strippedUnit(pass, bin.Y)
	if x == "" || y == "" || x == y {
		return
	}
	pass.Reportf(bin.OpPos,
		"%s mixes stripped %s and %s values: additive arithmetic across units is dimensionally invalid",
		bin.Op, x, y)
}

// strippedUnit returns the unit type name when expr is a plain-float
// conversion float64(u)/float32(u) of a unit-typed value.
func strippedUnit(pass *Pass, expr ast.Expr) string {
	expr = ast.Unparen(expr)
	call, ok := expr.(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return ""
	}
	tv, ok := pass.Info.Types[call.Fun]
	if !ok || !tv.IsType() {
		return ""
	}
	basic, ok := tv.Type.(*types.Basic)
	if !ok || basic.Info()&types.IsFloat == 0 {
		return ""
	}
	return unitTypeName(pass, pass.Info.TypeOf(call.Args[0]))
}

// unitTypeName returns t's name when t is a defined type from the
// units package, and "" otherwise.
func unitTypeName(pass *Pass, t types.Type) string {
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != unitsPackage {
		return ""
	}
	return obj.Name()
}
