package rules

import (
	"go/ast"
	"go/types"

	"repro/internal/lint"
)

// ErrCheckLite flags ignored error returns on a short, curated list of calls
// where dropping the error loses data silently: flight-recorder dumps,
// telemetry sink flushes (the JSONL/CSV buffer holds trailing windows until
// Flush/Close), Encode calls on the serialisable artifacts, and file Close
// on write paths (a failed close after os.Create can discard buffered bytes
// — the classic NFS/ext4 trap). It is deliberately not a general errcheck:
// everything else error-shaped is the repo's own business.
var ErrCheckLite = &lint.Analyzer{
	Name: "errcheck-lite",
	Doc:  "error results of flight dumps, telemetry sink Flush/Close, artifact Encode, and file Close on write paths must be checked",
	Run:  runErrCheckLite,
}

// ecMethodRules match a method by name plus the package-path suffix of its
// receiver's named type.
var ecMethodRules = []struct {
	pkg, method string
}{
	{"topofile", "Encode"},
	{"workload", "Encode"},
	{"check", "Encode"},
	// A partial flight-recorder dump is silent loss of the very traces a
	// post-mortem needs.
	{"obs", "Dump"},
	{"obs", "DumpFile"},
	// Telemetry export sinks buffer sealed windows; dropping Flush/Close
	// truncates the curve on disk with no other symptom.
	{"timeseries", "Flush"},
	{"timeseries", "Close"},
	// http.Server.Shutdown reports whether the graceful drain actually
	// finished; ignoring it turns a hung shutdown into a silent request drop.
	{"http", "Shutdown"},
	// The daemon engine's Close seals telemetry and returns the first sink
	// error — dropping it loses the tail of every soak curve.
	{"serve", "Close"},
}

// ecFuncRules match a package-level function by name plus the package-path
// suffix of its defining package — the non-method side of the curated list.
var ecFuncRules = []struct {
	pkg, fn string
}{
	// runtime/pprof profile starts fail when another profile is already
	// running; ignoring that writes an empty or stale cpu.pprof into an
	// incident bundle with no other symptom.
	{"pprof", "StartCPUProfile"},
	{"pprof", "WriteHeapProfile"},
}

func runErrCheckLite(p *lint.Pass) {
	for _, f := range p.Files {
		for _, body := range funcScopes(f) {
			checkScope(p, body)
		}
	}
}

// checkScope inspects one function frame: the write-path heuristic for file
// closes is scoped to the frame that opened the file.
func checkScope(p *lint.Pass, body *ast.BlockStmt) {
	writePath := false
	walkShallow(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := calleeFunc(p, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "os" {
			if fn.Name() == "Create" || fn.Name() == "OpenFile" {
				writePath = true
			}
		}
		return true
	})
	walkShallow(body, func(n ast.Node) bool {
		var call *ast.CallExpr
		switch s := n.(type) {
		case *ast.ExprStmt:
			call, _ = s.X.(*ast.CallExpr)
		case *ast.DeferStmt:
			call = s.Call
		case *ast.GoStmt:
			call = s.Call
		}
		if call == nil {
			return true
		}
		fn := calleeFunc(p, call)
		if fn == nil {
			return true
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok || !returnsError(sig) {
			return true
		}
		if sig.Recv() == nil {
			for _, rule := range ecFuncRules {
				if fn.Name() == rule.fn && fn.Pkg() != nil && lint.PkgPathIs(fn.Pkg(), rule.pkg) {
					p.Reportf(call.Pos(), "error from %s.%s is discarded; the profile may silently be missing or stale", fn.Pkg().Name(), fn.Name())
					return true
				}
			}
			return true
		}
		recvPkg, recvName := recvTypeOf(sig)
		if recvPkg == nil {
			return true
		}
		for _, rule := range ecMethodRules {
			if fn.Name() == rule.method && lint.PkgPathIs(recvPkg, rule.pkg) {
				p.Reportf(call.Pos(), "error from (%s).%s is discarded; buffered data may be lost", recvName, fn.Name())
				return true
			}
		}
		if writePath && fn.Name() == "Close" && recvPkg.Path() == "os" && recvName == "File" {
			p.Reportf(call.Pos(), "file Close error is discarded on a write path; a failed close can lose written bytes")
		}
		return true
	})
}

// calleeFunc resolves the called function or method, or nil.
func calleeFunc(p *lint.Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.Ident:
		id = fun
	default:
		return nil
	}
	fn, _ := p.ObjectOf(id).(*types.Func)
	return fn
}

// returnsError reports whether the signature's last result is error.
func returnsError(sig *types.Signature) bool {
	res := sig.Results()
	if res.Len() == 0 {
		return false
	}
	last := res.At(res.Len() - 1).Type()
	named, ok := last.(*types.Named)
	return ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil
}

// recvTypeOf returns the defining package and name of the receiver's named
// type, resolving one pointer indirection.
func recvTypeOf(sig *types.Signature) (*types.Package, string) {
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Pkg(), named.Obj().Name()
	}
	return nil, ""
}
