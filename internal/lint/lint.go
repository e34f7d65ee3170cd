// Package lint is a self-contained static-analysis framework for the
// repository's domain invariants. The routing engine rests on conventions the
// Go compiler cannot see — every wdm.Network mutation must bump a version
// counter or the skeleton cache serves stale routes, routing output must be
// deterministic for the differential harness — and this package makes them
// machine-checked.
//
// The framework is deliberately stdlib-only: packages are enumerated with
// `go list -json`, parsed with go/parser and typechecked with go/types;
// dependencies are imported from the build cache's export data (no
// golang.org/x/tools). Analyzers implement the Analyzer interface and report
// Diagnostics through a Pass; findings can be silenced case by case with a
//
//	//wdmlint:ignore <rule> <reason>
//
// directive on the offending line or on a comment line directly above it.
// The reason is mandatory: a suppression without one is itself a finding.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named rule. Exactly one of Run and RunGlobal must be set:
// Run sees one package at a time; RunGlobal sees the whole analyzed package
// set at once — the flow-aware analyzers that need a program-wide call graph
// use it.
type Analyzer struct {
	// Name identifies the rule in output and in ignore directives.
	Name string
	// Doc is a one-line description shown by `wdmlint -list`.
	Doc string
	// Run inspects one package and reports findings on the pass.
	Run func(*Pass)
	// RunGlobal inspects every analyzed package in one pass, with a cache
	// shared across analyzers for expensive program-wide structures (the
	// call graph is built once per Run invocation, not once per rule).
	RunGlobal func(*GlobalPass)
}

// Diagnostic is one finding.
type Diagnostic struct {
	Rule     string         `json:"rule"`
	Pos      token.Position `json:"pos"`
	Message  string         `json:"message"`
	Package  string         `json:"package"`
	Suppress bool           `json:"-"` // set by the runner when an ignore directive covers it
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Rule, d.Message)
}

// Pass carries one typechecked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *types.Package
	Info     *types.Info
	Fset     *token.FileSet
	Files    []*ast.File

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Rule:    p.Analyzer.Name,
		Pos:     p.Fset.Position(pos),
		Message: fmt.Sprintf(format, args...),
		Package: p.Pkg.Path(),
	})
}

// TypeOf returns the static type of e, or nil when untyped.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// ObjectOf returns the object an identifier denotes (uses or defs).
func (p *Pass) ObjectOf(id *ast.Ident) types.Object { return p.Info.ObjectOf(id) }

// Cache memoizes program-wide structures (the call graph, fact tables)
// across the analyzers of one Run invocation. It is keyed by string so the
// framework does not need to know the concrete types the rule packages
// build on top of it.
type Cache struct {
	m map[string]any
}

// Get returns the cached value under key, building and storing it on first
// use. Run invocations are single-goroutine, so no locking is needed.
func (c *Cache) Get(key string, build func() any) any {
	if v, ok := c.m[key]; ok {
		return v
	}
	v := build()
	c.m[key] = v
	return v
}

// GlobalPass carries the whole analyzed package set through one RunGlobal
// analyzer.
type GlobalPass struct {
	Analyzer *Analyzer
	Pkgs     []*Package
	Cache    *Cache

	diags *[]Diagnostic
}

// Reportf records a finding at pos, attributed to pkg (the package whose
// source contains pos — attribution is what routes suppression directives).
func (gp *GlobalPass) Reportf(pkg *Package, pos token.Pos, format string, args ...any) {
	*gp.diags = append(*gp.diags, Diagnostic{
		Rule:    gp.Analyzer.Name,
		Pos:     pkg.Fset.Position(pos),
		Message: fmt.Sprintf(format, args...),
		Package: pkg.Types.Path(),
	})
}

// PkgPathIs reports whether pkg's import path is suffix, or ends in
// "/"+suffix — the path-suffix matching every analyzer uses so that fixture
// packages under testdata exercise the same code paths as the real tree.
func PkgPathIs(pkg *types.Package, suffix string) bool {
	if pkg == nil {
		return false
	}
	path := pkg.Path()
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// NamedType reports whether t (or the type t points to) is the named type
// pkgSuffix.name, resolving through aliases but not through further
// indirection.
func NamedType(t types.Type, pkgSuffix, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && PkgPathIs(obj.Pkg(), pkgSuffix)
}

// WalkStack walks every node of f in source order, calling fn with the node
// and the stack of its ancestors (outermost first, node not included). It is
// the stdlib-only stand-in for x/tools' inspector.WithStack.
func WalkStack(f *ast.File, fn func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		fn(n, stack)
		stack = append(stack, n)
		return true
	})
}

// Run applies every analyzer to every package and returns the surviving
// findings sorted by position, with suppression directives already applied.
// Malformed directives (missing rule or reason) and stale ones (a directive
// of a rule that ran but covered no finding) are reported under the
// "wdmlint" pseudo-rule.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	cache := &Cache{m: map[string]any{}}
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			pass := &Pass{
				Analyzer: a,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				diags:    &diags,
			}
			a.Run(pass)
		}
		diags = append(diags, malformedDirectives(pkg)...)
	}
	for _, a := range analyzers {
		if a.RunGlobal == nil {
			continue
		}
		a.RunGlobal(&GlobalPass{Analyzer: a, Pkgs: pkgs, Cache: cache, diags: &diags})
	}
	diags = applySuppressions(pkgs, diags, analyzers)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Rule < diags[j].Rule
	})
	out := diags[:0]
	for _, d := range diags {
		if !d.Suppress {
			out = append(out, d)
		}
	}
	return out
}
