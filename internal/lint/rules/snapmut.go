package rules

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint"
	"repro/internal/lint/callgraph"
	"repro/internal/lint/facts"
)

// SnapMut guards the serve daemon's snapshot-isolation contract: a
// wdm.Network obtained from CloneSince or from a published serve snapshot is
// frozen — readers route on it lock-free precisely because nobody writes it.
// A single mutating call on a snapshot corrupts every concurrent reader of
// that epoch, and the race detector only catches it if two goroutines collide
// during the test run. This rule catches it statically.
//
// Mutating methods are classified the same way versionbump classifies them
// (rooted writes, version bumps, availability surgery), applied to the
// receiver and to every network parameter — SyncInto writes the copy it is
// handed, not its receiver — and the property is propagated backward over
// the call graph: a function that passes a network to a mutator is itself a
// mutator of that parameter. Snapshot values are tracked intra-procedurally
// from their three sources — CloneSince results, the serve snapshot's net
// field, and Engine.Snapshot — through local aliasing, and every call that
// feeds one into a mutator is a finding. The committer never trips the rule
// because it writes only the store's private working copy and, when it
// recycles a retired snapshot, the store's own handle on that network (a
// pooled slot's net field), neither of which is a snapshot source.
var SnapMut = &lint.Analyzer{
	Name:      "snapmut",
	Doc:       "wdm.Network values from CloneSince or serve snapshots are frozen; mutating methods may only run on the committer's working copy",
	RunGlobal: runSnapMut,
}

// smFact is a per-function mutation fact: the set of parameter indices
// (0 = receiver, 1..n = declared parameters) through which the function
// transitively mutates a wdm.Network, each mapped to the name of the
// ultimate mutating method reached ("Network.Use").
type smFact map[int]string

func runSnapMut(gp *lint.GlobalPass) {
	g := callgraph.For(gp.Cache, gp.Pkgs)

	// Seed: a wdm.Network method mutates each network it writes — its
	// receiver, or a network parameter (SyncInto writes the copy it brings
	// forward) — where writing is storing into rooted state, bumping a
	// version counter, or mutating availability sets.
	seed := map[*callgraph.Node]smFact{}
	paramIdx := map[*callgraph.Node]map[types.Object]int{}
	for _, n := range g.Order {
		if n.Decl.Recv == nil || n.Decl.Body == nil ||
			!lint.NamedType(n.Pkg.Info.TypeOf(n.Decl.Recv.List[0].Type), vbPkg, vbType) {
			continue
		}
		for obj, idx := range smParams(n, paramIdx) {
			if idx > 0 && !lint.NamedType(obj.Type(), vbPkg, vbType) {
				continue
			}
			res := scanNetworkMethod(n.Pkg.Info, n.Decl.Body, obj)
			if res.writes || res.bumps || res.availWrites {
				if seed[n] == nil {
					seed[n] = smFact{}
				}
				seed[n][idx] = smLabel(n)
			}
		}
	}

	// Propagate backward: a caller that feeds one of its own parameters (or
	// receiver) into a mutated parameter of a callee mutates that parameter.
	mut := facts.Propagate(g, seed, facts.Backward,
		func(dst *callgraph.Node, old smFact, had bool, in smFact, e *callgraph.Edge) (smFact, bool) {
			params := smParams(dst, paramIdx)
			changed := false
			for j, witness := range in {
				arg := smArgAt(e, j)
				if arg == nil {
					continue
				}
				id, ok := unparen(arg).(*ast.Ident)
				if !ok {
					continue
				}
				idx, ok := params[e.Caller.Pkg.Info.ObjectOf(id)]
				if !ok {
					continue
				}
				if _, dup := old[idx]; dup {
					continue
				}
				if old == nil {
					old = smFact{}
				}
				old[idx] = witness
				changed = true
			}
			return old, changed
		})

	// Flag: in every function, track snapshot-tainted values through local
	// aliasing and report each call edge that feeds one into a mutated
	// parameter.
	for _, n := range g.Order {
		if n.Decl.Body == nil {
			continue
		}
		tainted := smCollectTaint(n.Pkg.Info, n.Decl.Body)
		type siteParam struct {
			pos token.Pos
			j   int
		}
		reported := map[siteParam]bool{}
		for _, e := range n.Out {
			fact := mut[e.Callee]
			if fact == nil {
				continue
			}
			for j, witness := range fact {
				arg := smArgAt(e, j)
				if arg == nil || !smTainted(n.Pkg.Info, tainted, arg) {
					continue
				}
				key := siteParam{e.Site.Pos(), j}
				if reported[key] {
					continue
				}
				reported[key] = true
				label := smLabel(e.Callee)
				switch {
				case j == 0 && witness == label:
					gp.Reportf(n.Pkg, arg.Pos(),
						"calling mutating method %s on a snapshot network; snapshots from CloneSince are frozen — only the committer's working copy may change",
						label)
				case j == 0:
					gp.Reportf(n.Pkg, arg.Pos(),
						"calling %s on a snapshot network; it mutates the network via %s, and snapshots from CloneSince are frozen",
						label, witness)
				case witness == label:
					gp.Reportf(n.Pkg, arg.Pos(),
						"passing a snapshot network to %s, which writes it; snapshots from CloneSince are frozen",
						label)
				default:
					gp.Reportf(n.Pkg, arg.Pos(),
						"passing a snapshot network to %s, which mutates it via %s; snapshots from CloneSince are frozen",
						label, witness)
				}
			}
		}
	}
}

// smLabel names a node for diagnostics: Recv.Method for methods, pkg.Func
// for functions.
func smLabel(n *callgraph.Node) string {
	sig := n.Func.Type().(*types.Signature)
	if r := sig.Recv(); r != nil {
		t := r.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return named.Obj().Name() + "." + n.Func.Name()
		}
	}
	return n.Func.Pkg().Name() + "." + n.Func.Name()
}

// smParams maps a node's receiver and parameter objects to fact indices
// (receiver 0, parameters 1..n), memoized in cache.
func smParams(n *callgraph.Node, cache map[*callgraph.Node]map[types.Object]int) map[types.Object]int {
	if m, ok := cache[n]; ok {
		return m
	}
	m := map[types.Object]int{}
	sig := n.Func.Type().(*types.Signature)
	if r := sig.Recv(); r != nil {
		m[r] = 0
	}
	for i := 0; i < sig.Params().Len(); i++ {
		m[sig.Params().At(i)] = i + 1
	}
	cache[n] = m
	return m
}

// smArgAt returns the caller-side expression that flows into callee
// parameter index j (0 = receiver) at edge e, or nil when the site cannot
// name it (bound method value: the receiver was captured elsewhere).
func smArgAt(e *callgraph.Edge, j int) ast.Expr {
	site := e.Site
	sig := e.Callee.Func.Type().(*types.Signature)
	if sig.Recv() != nil {
		if sel, ok := unparen(site.Fun).(*ast.SelectorExpr); ok {
			if s, ok := e.Caller.Pkg.Info.Selections[sel]; ok {
				switch s.Kind() {
				case types.MethodVal:
					if j == 0 {
						return sel.X
					}
					if j-1 < len(site.Args) {
						return site.Args[j-1]
					}
					return nil
				case types.MethodExpr:
					// T.M(recv, args...): the receiver is the first argument.
					if j < len(site.Args) {
						return site.Args[j]
					}
					return nil
				}
			}
		}
		// Call through a bound method value: the receiver is not at the site.
		if j == 0 {
			return nil
		}
	}
	if j >= 1 && j-1 < len(site.Args) {
		return site.Args[j-1]
	}
	return nil
}

// smCollectTaint computes the set of local objects in body that alias a
// snapshot network, to a fixed point over the body's assignments. Sources:
// CloneSince results, the net field of serve's snapshot struct, and the
// network result of serve's Engine.Snapshot.
func smCollectTaint(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	tainted := map[types.Object]bool{}
	taintLHS := func(lhs ast.Expr) bool {
		id, ok := unparen(lhs).(*ast.Ident)
		if !ok || id.Name == "_" {
			return false
		}
		obj := info.ObjectOf(id)
		if obj == nil || tainted[obj] {
			return false
		}
		tainted[obj] = true
		return true
	}
	scan := func() bool {
		changed := false
		ast.Inspect(body, func(node ast.Node) bool {
			switch x := node.(type) {
			case *ast.AssignStmt:
				if len(x.Rhs) == 1 && len(x.Lhs) > 1 {
					// Tuple assignment from a multi-result call.
					if call, ok := unparen(x.Rhs[0]).(*ast.CallExpr); ok {
						for _, i := range smTaintedResults(info, call) {
							if i < len(x.Lhs) && taintLHS(x.Lhs[i]) {
								changed = true
							}
						}
					}
					return true
				}
				for i, rhs := range x.Rhs {
					if i < len(x.Lhs) && smTainted(info, tainted, rhs) && taintLHS(x.Lhs[i]) {
						changed = true
					}
				}
			case *ast.ValueSpec:
				if len(x.Values) == 1 && len(x.Names) > 1 {
					if call, ok := unparen(x.Values[0]).(*ast.CallExpr); ok {
						for _, i := range smTaintedResults(info, call) {
							if i < len(x.Names) && taintLHS(x.Names[i]) {
								changed = true
							}
						}
					}
					return true
				}
				for i, v := range x.Values {
					if i < len(x.Names) && smTainted(info, tainted, v) && taintLHS(x.Names[i]) {
						changed = true
					}
				}
			}
			return true
		})
		return changed
	}
	for scan() {
	}
	return tainted
}

// smTainted reports whether e evaluates to a snapshot network: a tainted
// local, a taint source expression, or a pointer/indirection of one.
func smTainted(info *types.Info, tainted map[types.Object]bool, e ast.Expr) bool {
	e = unparen(e)
	switch x := e.(type) {
	case *ast.Ident:
		obj := info.ObjectOf(x)
		return obj != nil && tainted[obj]
	case *ast.SelectorExpr:
		return smSnapshotField(info, x)
	case *ast.CallExpr:
		for _, i := range smTaintedResults(info, x) {
			if i == 0 {
				return true
			}
		}
		return false
	case *ast.UnaryExpr:
		return x.Op == token.AND && smTainted(info, tainted, x.X)
	case *ast.StarExpr:
		return smTainted(info, tainted, x.X)
	}
	return false
}

// smSnapshotField reports whether sel reads the frozen network out of a
// published serve snapshot (snapshot.net).
func smSnapshotField(info *types.Info, sel *ast.SelectorExpr) bool {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return false
	}
	return s.Obj().Name() == "net" &&
		lint.NamedType(s.Recv(), "serve", "snapshot") &&
		lint.NamedType(s.Obj().Type(), vbPkg, vbType)
}

// smTaintedResults returns the result indices of call that yield a snapshot
// network: CloneSince on a wdm.Network (result 0) and Snapshot on a serve
// Engine (result 1).
func smTaintedResults(info *types.Info, call *ast.CallExpr) []int {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return nil
	}
	m := s.Obj()
	switch {
	case m.Name() == "CloneSince" && lint.NamedType(s.Recv(), vbPkg, vbType):
		return []int{0}
	case m.Name() == "Snapshot" && lint.NamedType(s.Recv(), "serve", "Engine"):
		return []int{1}
	}
	return nil
}
