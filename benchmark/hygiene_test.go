package main

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/rules"
)

// benchmarkJSON is the repository-root BENCHMARK.json; decoding rejects
// any key it does not declare.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var bj benchmarkJSON
	if err := dec.Decode(&bj); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bj
}

// TestDeclarationsMatchBenchmarkJSON is the drift test: the workloads and
// metrics the program reports are exactly those BENCHMARK.json declares.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	var gotW, wantW []Workload
	for _, w := range bj.Workloads {
		gotW = append(gotW, Workload{w.Name, w.Why})
	}
	wantW = workloads
	if !reflect.DeepEqual(gotW, wantW) {
		t.Errorf("BENCHMARK.json workloads %v\nprogram declares %v", gotW, wantW)
	}
	var gotE []EndToEnd
	for _, m := range bj.EndToEnd {
		gotE = append(gotE, EndToEnd{m.Name, m.Unit, m.Better, m.Bound})
	}
	if !reflect.DeepEqual(gotE, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v\nprogram declares %v", gotE, endToEnd)
	}
	var gotP, wantP [][3]string
	for _, m := range bj.PerLayer {
		gotP = append(gotP, [3]string{m.Name, m.Unit, m.Better})
	}
	for _, m := range perLayer {
		wantP = append(wantP, [3]string{m.Name, m.Unit, m.Better})
	}
	if !reflect.DeepEqual(gotP, wantP) {
		t.Errorf("BENCHMARK.json per_layer %v\nprogram declares %v", gotP, wantP)
	}
	if !reflect.DeepEqual(bj.Paths, []string{"benchmark"}) {
		t.Errorf("paths %v, want [benchmark]", bj.Paths)
	}
	if len(bj.Command) < 2 || bj.Command[1] != "benchmark/run.sh" {
		t.Errorf("command %v does not run benchmark/run.sh", bj.Command)
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", bj.RunSeconds)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestDeclarationsWellFormed checks names, units, directions and bounds,
// and that every per-layer "moves" entry and every ungated pair names a
// declared end-to-end metric and workload.
func TestDeclarationsWellFormed(t *testing.T) {
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	checkPair := func(what string, p Pair) {
		_, okM := endToEndByName(p.Metric)
		okW := false
		for _, w := range workloads {
			okW = okW || w.Name == p.Workload
		}
		if !okM || !okW {
			t.Errorf("%s %s@%s: not a declared end-to-end metric and workload", what, p.Metric, p.Workload)
		}
	}
	for p := range ungated {
		checkPair("ungated", p)
	}
	for _, w := range allWorkloads() {
		name(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	maxBound := 0.0
	for _, m := range endToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: unit %q, better %q, bound %v", m.Name, m.Unit, m.Better, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
	}
	if s, ok := endToEndByName("setup_s"); !ok || s.Unit != "s" || s.Better != "lower" || s.Bound != maxBound {
		t.Errorf("setup_s must be declared in s, lower is better, with the largest bound (%v): %+v", maxBound, s)
	}
	for _, m := range perLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer %s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
		for _, mv := range m.Moves {
			checkPair("per-layer "+m.Name+" moves", mv)
		}
	}
	for _, w := range allWorkloads() {
		if runners[w.Name] == nil {
			t.Errorf("workload %s has no runner", w.Name)
		}
	}
	if len(runners) != len(allWorkloads()) {
		t.Errorf("%d runners for %d workloads", len(runners), len(allWorkloads()))
	}
}

// forbiddenImports are packages the benchmark must not depend on: the
// legacy bench harness the roadmap deletes, and the bucketed histograms whose
// quantiles are bucket bounds rather than samples.
var forbiddenImports = map[string]bool{
	"repro/internal/bench":      true,
	"repro/internal/metrics":    true,
	"repro/internal/stats":      true,
	"repro/internal/timeseries": true,
}

// forbiddenFuncs are package-level functions the roadmap deletes.
var forbiddenFuncs = map[string]bool{
	"repro/internal/core.ApproxMinCost":             true,
	"repro/internal/core.ApproxMinCostNodeDisjoint": true,
	"repro/internal/core.MinLoad":                   true,
	"repro/internal/core.MinLoadCost":               true,
	"repro/internal/disjoint.Suurballe":             true,
	"repro/internal/serve.RunSoak":                  true,
	"repro/internal/serve.Drive":                    true,
}

// TestImportGuard keeps the benchmark off every path the roadmap deletes, so
// those deletions never have to touch it, and off histogram quantiles.
func TestImportGuard(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, file := range files {
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		local := map[string]string{} // local package name → import path
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if forbiddenImports[p] {
				t.Errorf("%s imports %s", file, p)
			}
			name := path.Base(p)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			local[name] = p
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			// The allocating graph.Dijkstra is a method; histogram quantiles
			// are Quantile methods. Neither may be called on anything.
			if sel.Sel.Name == "Dijkstra" || sel.Sel.Name == "Quantile" {
				t.Errorf("%s: calls .%s", fset.Position(sel.Pos()), sel.Sel.Name)
			}
			if x, ok := sel.X.(*ast.Ident); ok && forbiddenFuncs[local[x.Name]+"."+sel.Sel.Name] {
				t.Errorf("%s: uses %s.%s", fset.Position(sel.Pos()), local[x.Name], sel.Sel.Name)
			}
			return true
		})
	}
}

// TestWdmlintClean runs the repository's linter over the benchmark module:
// errcheck-lite, for one, requires the engine's Close and the server's
// Shutdown errors to be checked.
func TestWdmlintClean(t *testing.T) {
	pkgs, err := lint.Load("", "./...")
	if err != nil {
		t.Fatalf("loading the benchmark: %v", err)
	}
	for _, d := range lint.Run(pkgs, rules.All) {
		t.Errorf("%s", d)
	}
}
