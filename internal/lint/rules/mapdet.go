package rules

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint"
)

// MapDet guards reproducibility: the differential harness replays an
// operation stream against two router arms and requires bit-exact agreement,
// so everything that feeds a returned path or cost in the deterministic
// packages must be order-stable. Go randomises map iteration order per run;
// a bare `range m` that influences output makes failures unreproducible and
// the fresh/warm comparison flaky. The accepted shape is the sorted-key
// idiom: collect keys (or values) into a slice inside the loop and sort it
// before use.
var MapDet = &lint.Analyzer{
	Name: "mapdet",
	Doc:  "map iteration in deterministic packages (auxgraph, disjoint, core, check, bench) must use the sorted-key idiom",
	Run:  runMapDet,
}

// mdPackages must produce identical output for identical input.
var mdPackages = []string{"auxgraph", "disjoint", "core", "check", "check/harness", "bench"}

func runMapDet(p *lint.Pass) {
	det := false
	for _, name := range mdPackages {
		if lint.PkgPathIs(p.Pkg, name) {
			det = true
			break
		}
	}
	if !det {
		return
	}
	for _, f := range p.Files {
		lint.WalkStack(f, func(n ast.Node, stack []ast.Node) {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return
			}
			t := p.TypeOf(rng.X)
			if t == nil {
				return
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return
			}
			if sortedAfter(p, enclosingFuncBody(stack), rng.End()) {
				return // sorted-key idiom: the collected keys are ordered before use
			}
			p.Reportf(rng.Pos(),
				"map iteration order is nondeterministic; collect keys into a slice and sort before use, or justify with a wdmlint:ignore directive")
		})
	}
}

// enclosingFuncBody returns the body of the innermost function in stack, or
// nil at file scope.
func enclosingFuncBody(stack []ast.Node) *ast.BlockStmt {
	for i := len(stack) - 1; i >= 0; i-- {
		switch fn := stack[i].(type) {
		case *ast.FuncDecl:
			return fn.Body
		case *ast.FuncLit:
			return fn.Body
		}
	}
	return nil
}

// sortedAfter reports whether body contains a call into package sort or
// slices positioned after pos — the signature of the sorted-key idiom.
func sortedAfter(p *lint.Pass, body *ast.BlockStmt, pos token.Pos) bool {
	if body == nil {
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos {
			return true
		}
		sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := unparen(sel.X).(*ast.Ident)
		if !ok {
			return true
		}
		if pn, ok := p.ObjectOf(id).(*types.PkgName); ok {
			switch pn.Imported().Path() {
			case "sort", "slices":
				found = true
				return false
			}
		}
		return true
	})
	return found
}
