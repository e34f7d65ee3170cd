// Package rules holds the domain analyzers wdmlint ships: machine checks for
// the conventions the routing engine's correctness rests on. Each analyzer
// documents the invariant it guards; DESIGN.md §10 is the narrative version.
package rules

import (
	"go/ast"

	"repro/internal/lint"
)

// All is the full rule set, in the order the driver runs them.
var All = []*lint.Analyzer{
	VersionBump,
	MapDet,
	ErrCheckLite,
	HotAlloc,
	SnapMut,
	AtomicField,
}

// funcScopes returns every function body of f — declarations and literals —
// innermost bodies excluded from their enclosing scope, so per-function
// checks (like the errcheck write-path heuristic) see exactly one frame.
func funcScopes(f *ast.File) []*ast.BlockStmt {
	var out []*ast.BlockStmt
	ast.Inspect(f, func(n ast.Node) bool {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body != nil {
				out = append(out, fn.Body)
			}
		case *ast.FuncLit:
			out = append(out, fn.Body)
		}
		return true
	})
	return out
}

// walkShallow walks body without descending into nested function literals.
func walkShallow(body *ast.BlockStmt, fn func(ast.Node) bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok && n.Pos() != body.Pos() {
			return false
		}
		return fn(n)
	})
}

// unparen strips parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
