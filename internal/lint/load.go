package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"

	"strings"
	"sync"
)

// PackageSpec describes one package to load. Specs for packages that are only
// imported (Analyze false) need just ImportPath and ExportFile; specs to be
// analyzed are typechecked from source and must list their files. Specs must
// be ordered dependencies-first (the order `go list -deps` produces).
type PackageSpec struct {
	ImportPath string
	Dir        string
	Files      []string // absolute paths of the package's .go files
	ExportFile string   // compiled export data, for import resolution
	Imports    []string // direct imports, for the parallel typecheck schedule
	Analyze    bool     // typecheck from source and run analyzers
}

// Package is one typechecked package ready for analysis.
type Package struct {
	Types *types.Package
	Info  *types.Info
	Fset  *token.FileSet
	Files []*ast.File
}

// listedPackage is the subset of `go list -json` output the loader reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Imports    []string
	DepOnly    bool
	Error      *struct{ Err string }
}

// goList runs `go list` in dir with the given arguments and decodes the JSON
// package stream.
func goList(dir string, args ...string) ([]listedPackage, error) {
	cmd := exec.Command("go", append([]string{"list", "-e", "-json"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list %v: %v\n%s", args, err, stderr.Bytes())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// List enumerates the packages matching patterns (relative to dir) together
// with their transitive dependencies, dependencies-first. Packages matching
// the patterns themselves are marked Analyze; dependencies resolve from
// export data only.
func List(dir string, patterns ...string) ([]PackageSpec, error) {
	listed, err := goList(dir, append([]string{"-deps", "-export", "--"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	var specs []PackageSpec
	for _, p := range listed {
		if p.Error != nil {
			return nil, fmt.Errorf("lint: %s: %s", p.ImportPath, p.Error.Err)
		}
		spec := PackageSpec{
			ImportPath: p.ImportPath,
			Dir:        p.Dir,
			ExportFile: p.Export,
			Imports:    p.Imports,
			Analyze:    !p.DepOnly,
		}
		for _, f := range p.GoFiles {
			spec.Files = append(spec.Files, filepath.Join(p.Dir, f))
		}
		specs = append(specs, spec)
	}
	// A dependency-only package that imports an analyzed package would mix
	// export-data types with source-checked types for the same import path —
	// two distinct *types.Package instances, and spurious mismatch errors.
	// Promote such packages to source analysis; one forward pass suffices
	// because the specs are ordered dependencies-first. A full ./... run
	// never promotes (stdlib deps do not import repo packages); a load of
	// selected packages can.
	analyzed := map[string]bool{}
	for i := range specs {
		s := &specs[i]
		if !s.Analyze {
			for _, imp := range s.Imports {
				if analyzed[imp] {
					s.Analyze = true
					break
				}
			}
		}
		if s.Analyze {
			analyzed[s.ImportPath] = true
		}
	}
	return specs, nil
}

// exportData is the process-wide cache of compiled export data: each export
// file is read from disk at most once per process, no matter how many loads
// or importer instances ask for it (the gc importer re-opens its input per
// package; this keeps the repeated reads in memory).
var exportData = struct {
	mu sync.Mutex
	m  map[string][]byte
}{m: map[string][]byte{}}

func readExportFile(file string) ([]byte, error) {
	exportData.mu.Lock()
	defer exportData.mu.Unlock()
	if b, ok := exportData.m[file]; ok {
		return b, nil
	}
	b, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	exportData.m[file] = b
	return b, nil
}

// exportLookup resolves import paths to export data, preferring files named
// by the specs and falling back to one `go list -export` call per unknown
// path (cached). It is the lookup function handed to the gc importer.
type exportLookup struct {
	mu    sync.Mutex
	files map[string]string // import path -> export file
}

func (l *exportLookup) lookup(path string) (io.ReadCloser, error) {
	l.mu.Lock()
	file, ok := l.files[path]
	l.mu.Unlock()
	if !ok {
		listed, err := goList("", "-export", "--", path)
		if err != nil {
			return nil, err
		}
		if len(listed) != 1 || listed[0].Export == "" {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		file = listed[0].Export
		l.mu.Lock()
		l.files[path] = file
		l.mu.Unlock()
	}
	b, err := readExportFile(file)
	if err != nil {
		return nil, err
	}
	return io.NopCloser(bytes.NewReader(b)), nil
}

// checkState is the shared state of one parallel Check: the source-checked
// packages (filled as their goroutines finish) and the mutex-guarded
// export-data importer every worker falls back to.
type checkState struct {
	mu       sync.Mutex
	own      map[string]*types.Package
	fallback types.Importer
	done     map[string]chan struct{} // closed when the path's typecheck finished
	errs     map[string]error
}

// pkgImporter resolves imports for one package being typechecked: imports of
// other analyzed packages block until their goroutine has finished, imports
// of dependency-only packages read export data.
type pkgImporter struct{ st *checkState }

func (imp pkgImporter) Import(path string) (*types.Package, error) {
	st := imp.st
	if ch, ok := st.done[path]; ok {
		<-ch
		st.mu.Lock()
		pkg, err := st.own[path], st.errs[path]
		st.mu.Unlock()
		if err != nil {
			return nil, fmt.Errorf("import %q: %v", path, err)
		}
		return pkg, nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.fallback.Import(path)
}

// Check parses and typechecks every Analyze spec, resolving imports against
// sibling specs and export data. Packages are typechecked concurrently: each
// spec's worker blocks only on the analyzed packages it imports, so
// independent subtrees of the dependency graph check in parallel instead of
// serially re-walking the whole graph. Syntax and type errors abort the
// load: analyzers only ever see well-typed packages.
func Check(specs []PackageSpec) ([]*Package, error) {
	fset := token.NewFileSet()
	lookup := &exportLookup{files: map[string]string{}}
	for _, s := range specs {
		if s.ExportFile != "" {
			lookup.files[s.ImportPath] = s.ExportFile
		}
	}
	st := &checkState{
		own:      map[string]*types.Package{},
		fallback: importer.ForCompiler(fset, "gc", lookup.lookup),
		done:     map[string]chan struct{}{},
		errs:     map[string]error{},
	}
	var analyze []PackageSpec
	for _, s := range specs {
		if s.Analyze {
			analyze = append(analyze, s)
			st.done[s.ImportPath] = make(chan struct{})
		}
	}

	results := make([]*Package, len(analyze))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, s := range analyze {
		wg.Add(1)
		go func(i int, s PackageSpec) {
			defer wg.Done()
			defer close(st.done[s.ImportPath])
			// Wait for analyzed imports before taking a worker slot, so a
			// blocked package never starves the workers it is waiting on —
			// with one slot, blocking inside it would deadlock. Specs without
			// import lists (hand-built fixture specs) conservatively wait on
			// every earlier analyzed spec: the documented dependencies-first
			// order makes that set a superset of their analyzed imports, and
			// waiting happens before acquiring the slot, so it cannot cycle.
			deps := s.Imports
			if deps == nil {
				for _, p := range analyze[:i] {
					deps = append(deps, p.ImportPath)
				}
			}
			for _, dep := range deps {
				if ch, ok := st.done[dep]; ok {
					<-ch
				}
			}
			sem <- struct{}{}
			defer func() { <-sem }()
			pkg, err := checkOne(fset, pkgImporter{st}, s)
			st.mu.Lock()
			if err != nil {
				st.errs[s.ImportPath] = err
			} else {
				st.own[s.ImportPath] = pkg.Types
				results[i] = pkg
			}
			st.mu.Unlock()
		}(i, s)
	}
	wg.Wait()

	// Report the dependencies-first earliest failure: it is the root cause —
	// later packages fail only because their import did.
	for _, s := range analyze {
		if err := st.errs[s.ImportPath]; err != nil {
			return nil, err
		}
	}
	return results, nil
}

// checkOne parses and typechecks a single spec.
func checkOne(fset *token.FileSet, imp types.Importer, s PackageSpec) (*Package, error) {
	var files []*ast.File
	for _, name := range s.Files {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %v", err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(s.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: typechecking %s: %v", s.ImportPath, err)
	}
	return &Package{Types: tpkg, Info: info, Fset: fset, Files: files}, nil
}

// loadCache memoizes Load results per process, so repeated loads of the same
// patterns (the self-gate test plus a driver run in one binary, or repeated
// analyzer passes) typecheck the dependency graph once.
var loadCache = struct {
	mu sync.Mutex
	m  map[string]loadResult
}{m: map[string]loadResult{}}

type loadResult struct {
	pkgs []*Package
	err  error
}

// Load is List followed by Check: the one-call entry point the driver and the
// self-test use. Results are memoized per (dir, patterns) for the life of the
// process.
func Load(dir string, patterns ...string) ([]*Package, error) {
	key := dir + "\x00" + strings.Join(patterns, "\x00")
	loadCache.mu.Lock()
	cached, ok := loadCache.m[key]
	loadCache.mu.Unlock()
	if ok {
		return cached.pkgs, cached.err
	}
	specs, err := List(dir, patterns...)
	var pkgs []*Package
	if err == nil {
		pkgs, err = Check(specs)
	}
	loadCache.mu.Lock()
	loadCache.m[key] = loadResult{pkgs: pkgs, err: err}
	loadCache.mu.Unlock()
	return pkgs, err
}
