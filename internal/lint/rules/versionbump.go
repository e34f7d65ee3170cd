package rules

import (
	"go/ast"
	"go/types"

	"repro/internal/lint"
)

// VersionBump guards the skeleton-cache invalidation contract: every exported
// wdm.Network method that writes residual or topology state must advance the
// change counters by calling bumpState or bumpTopo (auxgraph.Skeleton and the
// Router's per-pair caches are valid exactly while the version they were
// computed at still matches — a missed bump silently serves stale routes).
//
// It also guards the per-link change journal that the incremental reweight
// path reads: a method that mutates wavelength availability must stamp the
// journal (touchLink) rather than only bumping the aggregate
// counter, otherwise cached link weights are refreshed for the wrong links —
// the shape of the bug this rule first caught (a risk-group setter that
// bumped no counter; the method was since removed), one invalidation layer
// down.
var VersionBump = &lint.Analyzer{
	Name: "versionbump",
	Doc:  "exported wdm.Network methods that mutate state must call bumpState/bumpTopo, and availability writes must stamp the link journal",
	Run:  runVersionBump,
}

const (
	vbPkg  = "wdm"
	vbType = "Network"
)

var (
	// vbBumps are the methods (and raw counter fields) that count as
	// advancing a version. touchLink bumps transitively: it calls bumpState
	// before stamping the journal.
	vbBumps  = map[string]bool{"bumpState": true, "bumpTopo": true, "touchLink": true}
	vbFields = map[string]bool{"stateVersion": true, "topoVersion": true}
	// vbStamps are the calls that record an availability change in the
	// per-link journal. bumpTopo counts: a structural change invalidates
	// cached weights wholesale, so no per-link stamp is needed.
	vbStamps = map[string]bool{"touchLink": true, "bumpTopo": true}
	// vbStampFields are the raw fields whose write equals a journal stamp.
	vbStampFields = map[string]bool{"stamp": true, "topoVersion": true}
	// vbMutators are method names that mutate a container reached from the
	// receiver (bitset and slice surgery on links and availability sets).
	vbMutators = map[string]bool{
		"Add": true, "Remove": true, "Clear": true, "CopyFrom": true, "Fill": true,
	}
)

func runVersionBump(p *lint.Pass) {
	if !lint.PkgPathIs(p.Pkg, vbPkg) {
		return
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil || !fd.Name.IsExported() {
				continue
			}
			recv := fd.Recv.List[0]
			if len(recv.Names) == 0 {
				continue // receiver unnamed: the body cannot write through it
			}
			if !lint.NamedType(p.TypeOf(recv.Type), vbPkg, vbType) {
				continue
			}
			recvObj := p.ObjectOf(recv.Names[0])
			if recvObj == nil {
				continue
			}
			res := scanNetworkMethod(p.Info, fd.Body, recvObj)
			if res.writes && !res.bumps {
				p.Reportf(fd.Name.Pos(),
					"%s.%s mutates network state without calling bumpState or bumpTopo; cached skeletons will serve stale routes",
					vbType, fd.Name.Name)
			}
			if res.availWrites && res.bumps && !res.stamps {
				p.Reportf(fd.Name.Pos(),
					"%s.%s mutates wavelength availability without stamping the link journal; use touchLink so incremental reweight sees the change",
					vbType, fd.Name.Name)
			}
		}
	}
}

// vbScan is what a method-body walk observed: rooted state writes, version
// bumps, availability mutations, and journal stamps.
type vbScan struct {
	writes      bool
	bumps       bool
	availWrites bool
	stamps      bool
}

// scanNetworkMethod walks a method body tracking which local variables alias
// state reachable from the receiver ("rooted" values) and reports whether the
// body writes such state, whether it advances a version counter, and — for
// writes that go through an availability set — whether it stamps the
// per-link change journal.
func scanNetworkMethod(info *types.Info, body *ast.BlockStmt, recv types.Object) (res vbScan) {
	rooted := map[types.Object]bool{recv: true}

	isRooted := func(e ast.Expr) bool {
		for {
			switch x := unparen(e).(type) {
			case *ast.Ident:
				return rooted[info.ObjectOf(x)]
			case *ast.SelectorExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			default:
				return false
			}
		}
	}
	// isReceiver reports whether e is the receiver identifier itself.
	isReceiver := func(e ast.Expr) bool {
		id, ok := unparen(e).(*ast.Ident)
		return ok && info.ObjectOf(id) == recv
	}
	// markAlias records LHS identifiers of a rooted RHS as rooted.
	markAlias := func(lhs ast.Expr, rhs ast.Expr) {
		if !isRooted(rhs) {
			return
		}
		if id, ok := unparen(lhs).(*ast.Ident); ok {
			if obj := info.ObjectOf(id); obj != nil {
				rooted[obj] = true
			}
		}
	}
	// selName returns the trailing field name of a selector lvalue, "" for
	// other shapes. Used to recognise `.avail` containers and `.stamp` rows.
	selName := func(e ast.Expr) string {
		e = unparen(e)
		if ix, ok := e.(*ast.IndexExpr); ok {
			e = unparen(ix.X)
		}
		if sel, ok := e.(*ast.SelectorExpr); ok {
			return sel.Sel.Name
		}
		return ""
	}
	// recordWrite classifies a mutated lvalue: version-counter fields count
	// as bumps, journal fields as stamps, everything else rooted counts as a
	// state write.
	recordWrite := func(lhs ast.Expr) {
		lhs = unparen(lhs)
		if sel, ok := lhs.(*ast.SelectorExpr); ok && isReceiver(sel.X) && vbFields[sel.Sel.Name] {
			res.bumps = true
			if vbStampFields[sel.Sel.Name] {
				res.stamps = true
			}
			return
		}
		switch lhs.(type) {
		case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
			if isRooted(lhs) {
				if vbStampFields[selName(lhs)] {
					res.stamps = true
					return
				}
				res.writes = true
			}
		}
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if len(s.Lhs) == len(s.Rhs) {
				for i := range s.Lhs {
					markAlias(s.Lhs[i], s.Rhs[i])
				}
			}
			for _, lhs := range s.Lhs {
				recordWrite(lhs)
			}
		case *ast.IncDecStmt:
			recordWrite(s.X)
		case *ast.RangeStmt:
			if isRooted(s.X) {
				for _, v := range []ast.Expr{s.Key, s.Value} {
					if v != nil {
						markAlias(v, s.X)
					}
				}
			}
		case *ast.CallExpr:
			sel, ok := unparen(s.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch {
			case isReceiver(sel.X):
				if vbBumps[sel.Sel.Name] {
					res.bumps = true
				}
				if vbStamps[sel.Sel.Name] {
					res.stamps = true
				}
				// Other receiver methods are delegation: the callee is
				// checked on its own.
			case isRooted(sel.X) && vbMutators[sel.Sel.Name]:
				res.writes = true
				if selName(sel.X) == "avail" {
					res.availWrites = true
				}
			}
		}
		return true
	})
	return res
}
