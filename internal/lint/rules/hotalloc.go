package rules

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/lint"
	"repro/internal/lint/callgraph"
	"repro/internal/lint/facts"
)

// HotAlloc guards the steady-state allocation-free routing path. Functions
// annotated
//
//	//wdm:hotpath
//
// in their doc comment are roots of the per-request hot path (DijkstraInto,
// ReweightAt, Suurballe, AssignInto, the netsim event loop, the serve
// route-and-commit loop); everything they transitively reach over the static call graph
// inherits the contract: no allocation-inducing constructs. The runtime
// alloc gates (`!race` alloc tests) pin the allocation count of the paths
// they exercise — this rule covers the branches they do not, at compile
// time, and reports the full call chain from the annotated root so a finding
// deep in a helper is actionable.
//
// Amortised subroutines that a hot path legitimately enters but that are not
// themselves steady-state (cache-miss skeleton builds, one-time table
// construction, tracing with the tracer enabled) opt out with
//
//	//wdm:coldpath <reason>
//
// which stops propagation at that function; the reason is mandatory.
// Growth-guarded allocations — a make or append under an if whose condition
// reads cap() or len() — are the workspace warm-up idiom and are exempt, as
// is append whose first operand is a slice expression (the append(buf[:0],
// …) reuse idiom).
var HotAlloc = &lint.Analyzer{
	Name:      "hotalloc",
	Doc:       "functions reachable from a //wdm:hotpath root must not allocate (make/new, composite literals, growing append, fmt.Sprintf, string conversions, boxing, capturing closures)",
	RunGlobal: runHotAlloc,
}

const (
	hotDirective  = "//wdm:hotpath"
	coldDirective = "//wdm:coldpath"
)

// haAllocators are external (non-analyzed) callees known to allocate.
var haAllocators = map[string]bool{
	"fmt.Sprintf":  true,
	"fmt.Sprint":   true,
	"fmt.Sprintln": true,
	"fmt.Errorf":   true,
	"fmt.Appendf":  true,
	"errors.New":   true,
}

func runHotAlloc(gp *lint.GlobalPass) {
	g := callgraph.For(gp.Cache, gp.Pkgs)

	var roots []*callgraph.Node
	cold := map[*callgraph.Node]bool{}
	for _, n := range g.Order {
		switch dir, reason := haDirective(n.Decl.Doc); dir {
		case hotDirective:
			roots = append(roots, n)
		case coldDirective:
			if reason == "" {
				gp.Reportf(n.Pkg, n.Decl.Pos(),
					"%s on %s is missing its reason: want %s <why this function may allocate>",
					coldDirective, n.Func.Name(), coldDirective)
			}
			cold[n] = true
		}
	}
	parents := facts.Reach(g, roots, facts.Forward, func(n *callgraph.Node) bool { return cold[n] })

	// Deterministic report order: nodes in source order.
	hot := make([]*callgraph.Node, 0, len(parents))
	for _, n := range g.Order {
		if _, ok := parents[n]; ok {
			hot = append(hot, n)
		}
	}
	for _, n := range hot {
		chain := haChain(parents, n)
		haScan(gp, n, chain)
	}
}

// haDirective extracts a hotpath/coldpath directive from a doc comment.
func haDirective(doc *ast.CommentGroup) (directive, reason string) {
	if doc == nil {
		return "", ""
	}
	for _, c := range doc.List {
		switch {
		case c.Text == hotDirective || strings.HasPrefix(c.Text, hotDirective+" "):
			return hotDirective, ""
		case strings.HasPrefix(c.Text, coldDirective):
			return coldDirective, strings.TrimSpace(strings.TrimPrefix(c.Text, coldDirective))
		}
	}
	return "", ""
}

// haChain renders the call chain from the annotated root to n.
func haChain(parents map[*callgraph.Node]*callgraph.Edge, n *callgraph.Node) string {
	nodes := facts.Chain(parents, n, facts.Forward)
	parts := make([]string, len(nodes))
	for i, c := range nodes {
		parts[i] = haFuncLabel(c.Func)
	}
	return strings.Join(parts, " → ")
}

// haFuncLabel renders pkg.Func or pkg.(Recv).Method.
func haFuncLabel(fn *types.Func) string {
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		rt := sig.Recv().Type()
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
		}
		if named, ok := rt.(*types.Named); ok {
			name = named.Obj().Name() + "." + name
		}
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + name
	}
	return name
}

// haScan walks one hot function's body (nested literals included — the call
// graph attributes them here) and reports every allocation-inducing
// construct.
func haScan(gp *lint.GlobalPass, n *callgraph.Node, chain string) {
	if n.Decl.Body == nil {
		return
	}
	info := n.Pkg.Info
	report := func(pos token.Pos, desc string) {
		gp.Reportf(n.Pkg, pos, "%s on the hot path (%s)", desc, chain)
	}
	var walk func(node ast.Node, guarded bool, inLit *ast.FuncLit)
	walk = func(root ast.Node, guarded bool, inLit *ast.FuncLit) {
		ast.Inspect(root, func(node ast.Node) bool {
			switch x := node.(type) {
			case *ast.IfStmt:
				g := guarded || haGrowthGuard(x.Cond, info)
				if x.Init != nil {
					walk(x.Init, guarded, inLit)
				}
				walk(x.Cond, guarded, inLit)
				walk(x.Body, g, inLit)
				if x.Else != nil {
					walk(x.Else, guarded, inLit)
				}
				return false
			case *ast.ForStmt:
				// A for loop whose condition reads cap/len is the
				// grow-until-big-enough warm-up shape.
				if x.Cond != nil && haGrowthGuard(x.Cond, info) {
					if x.Init != nil {
						walk(x.Init, guarded, inLit)
					}
					walk(x.Cond, guarded, inLit)
					if x.Post != nil {
						walk(x.Post, true, inLit)
					}
					walk(x.Body, true, inLit)
					return false
				}
			case *ast.FuncLit:
				if caps := haCaptures(x, info); len(caps) > 0 {
					report(x.Pos(), fmt.Sprintf("closure capturing %s allocates", strings.Join(caps, ", ")))
				}
				walk(x.Body, guarded, x)
				return false
			case *ast.UnaryExpr:
				if x.Op == token.AND && !guarded {
					if _, ok := unparen(x.X).(*ast.CompositeLit); ok {
						report(x.Pos(), "&composite-literal allocates")
					}
				}
			case *ast.CompositeLit:
				if guarded {
					return true
				}
				if t := info.TypeOf(x); t != nil {
					switch t.Underlying().(type) {
					case *types.Slice:
						report(x.Pos(), "slice literal allocates")
					case *types.Map:
						report(x.Pos(), "map literal allocates")
					}
				}
			case *ast.CallExpr:
				haScanCall(gp, n, x, guarded, report)
			case *ast.AssignStmt:
				if len(x.Lhs) == len(x.Rhs) {
					for i := range x.Lhs {
						haCheckBox(info, info.TypeOf(x.Lhs[i]), x.Rhs[i], "assignment boxes", report)
					}
				}
			case *ast.ReturnStmt:
				sig := haEnclosingSig(info, n, inLit)
				if sig != nil && sig.Results().Len() == len(x.Results) {
					for i, r := range x.Results {
						haCheckBox(info, sig.Results().At(i).Type(), r, "return boxes", report)
					}
				}
			}
			return true
		})
	}
	walk(n.Decl.Body, false, nil)
}

// haScanCall classifies one call on the hot path: builtin allocators,
// denylisted external allocators, string conversions, and boxing at the
// arguments of analyzed callees.
func haScanCall(gp *lint.GlobalPass, n *callgraph.Node, call *ast.CallExpr, guarded bool, report func(token.Pos, string)) {
	info := n.Pkg.Info
	fun := unparen(call.Fun)

	// Conversions: string ↔ []byte/[]rune allocate; conversions to
	// interface types box.
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		to := tv.Type
		if len(call.Args) == 1 {
			from := info.TypeOf(call.Args[0])
			if haStringConv(from, to) {
				report(call.Pos(), "string ↔ []byte conversion allocates")
				return
			}
			if types.IsInterface(to) && from != nil && !types.IsInterface(from) && !haIsNil(info, call.Args[0]) {
				report(call.Pos(), fmt.Sprintf("conversion to %s boxes", types.TypeString(to, types.RelativeTo(n.Pkg.Types))))
				return
			}
		}
		return
	}
	if tv, ok := info.Types[fun]; ok && tv.IsBuiltin() {
		name := ""
		switch f := fun.(type) {
		case *ast.Ident:
			name = f.Name
		case *ast.SelectorExpr:
			name = f.Sel.Name
		}
		switch name {
		case "make":
			if !guarded {
				report(call.Pos(), "make allocates")
			}
		case "new":
			if !guarded {
				report(call.Pos(), "new allocates")
			}
		case "append":
			if guarded || len(call.Args) == 0 {
				return
			}
			if _, ok := unparen(call.Args[0]).(*ast.SliceExpr); ok {
				return // append(buf[:0], …) reuse idiom
			}
			report(call.Pos(), "append may grow its backing array")
		}
		return
	}

	// Denylisted external allocators.
	if name, ok := haCalleeName(info, fun); ok && haAllocators[name] {
		if !guarded {
			report(call.Pos(), name+" allocates")
		}
		return
	}

	// Boxing at call arguments: a concrete value passed for an interface
	// parameter.
	sig := haCallSig(info, fun)
	if sig == nil {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis != token.NoPos {
				continue // passing a slice through …, no per-arg boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		}
		haCheckBox(info, pt, arg, "argument boxes", report)
	}
}

// haCheckBox reports a concrete, non-nil value converted implicitly to an
// interface type.
func haCheckBox(info *types.Info, to types.Type, from ast.Expr, what string, report func(token.Pos, string)) {
	if to == nil || !types.IsInterface(to) {
		return
	}
	ft := info.TypeOf(from)
	if ft == nil || types.IsInterface(ft) || haIsNil(info, from) {
		return
	}
	report(from.Pos(), fmt.Sprintf("%s a %s into an interface", what, ft.String()))
}

// haStringConv reports a string ↔ []byte or string ↔ []rune conversion.
func haStringConv(from, to types.Type) bool {
	if from == nil || to == nil {
		return false
	}
	str := func(t types.Type) bool {
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	byteish := func(t types.Type) bool {
		s, ok := t.Underlying().(*types.Slice)
		if !ok {
			return false
		}
		b, ok := s.Elem().Underlying().(*types.Basic)
		return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
			b.Kind() == types.Uint8 || b.Kind() == types.Int32)
	}
	return (str(from) && byteish(to)) || (byteish(from) && str(to))
}

// haIsNil reports whether e is the predeclared nil.
func haIsNil(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.IsNil()
}

// haCalleeName returns "pkg.Func" for calls into non-analyzed packages.
func haCalleeName(info *types.Info, fun ast.Expr) (string, bool) {
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", false
	}
	return fn.Pkg().Name() + "." + fn.Name(), true
}

// haCallSig resolves the signature of a call for boxing analysis.
func haCallSig(info *types.Info, fun ast.Expr) *types.Signature {
	t := info.TypeOf(fun)
	if t == nil {
		return nil
	}
	sig, ok := t.Underlying().(*types.Signature)
	if !ok {
		return nil
	}
	return sig
}

// haGrowthGuard reports whether cond reads cap() or len() — the workspace
// warm-up guard shape (`if cap(ws.buf) < n { ws.buf = make(...) }`).
func haGrowthGuard(cond ast.Expr, info *types.Info) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		id, ok := unparen(call.Fun).(*ast.Ident)
		if !ok {
			return true
		}
		if tv, ok := info.Types[call.Fun]; ok && tv.IsBuiltin() && (id.Name == "cap" || id.Name == "len") {
			found = true
			return false
		}
		return true
	})
	return found
}

// haCaptures lists the free variables of lit: identifiers resolving to
// variables declared outside the literal (excluding package-level state,
// which needs no closure cell).
func haCaptures(lit *ast.FuncLit, info *types.Info) []string {
	seen := map[*types.Var]bool{}
	var names []string
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() || seen[v] {
			return true
		}
		if v.Parent() == nil {
			return true
		}
		// Package-level variables are not captured.
		if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return true
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			seen[v] = true
			names = append(names, v.Name())
		}
		return true
	})
	sort.Strings(names)
	return names
}

// haEnclosingSig returns the signature whose results a return statement in
// inLit (or the declared function when nil) targets.
func haEnclosingSig(info *types.Info, n *callgraph.Node, inLit *ast.FuncLit) *types.Signature {
	if inLit != nil {
		if t := info.TypeOf(inLit); t != nil {
			if sig, ok := t.(*types.Signature); ok {
				return sig
			}
		}
		return nil
	}
	return n.Func.Type().(*types.Signature)
}
