package rules_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/rules"
)

var update = flag.Bool("update", false, "rewrite the golden expected.txt files")

// fixtures maps each rule to its analyzer and the fixture packages under
// testdata/<rule>, listed dependencies-first so lint.Check can resolve the
// fixture-internal imports.
var fixtures = []struct {
	rule     string
	analyzer *lint.Analyzer
	subdirs  []string
}{
	{"versionbump", rules.VersionBump, []string{"wdm"}},
	{"mapdet", rules.MapDet, []string{"core", "other"}},
	{"errcheck", rules.ErrCheckLite, []string{"obs", "timeseries", "http", "serve", "pprof", "app"}},
	{"hotalloc", rules.HotAlloc, []string{"graph", "app"}},
	{"snapmut", rules.SnapMut, []string{"wdm", "serve", "app"}},
	{"atomicfield", rules.AtomicField, []string{"core", "other"}},
}

// loadFixture typechecks the fixture packages for one rule. Import paths are
// synthesized as fix/<rule>/<sub>; the path-suffix matching in the analyzers
// makes them behave like the real packages they stand in for.
func loadFixture(t *testing.T, rule string, subdirs []string) ([]*lint.Package, string) {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", rule))
	if err != nil {
		t.Fatal(err)
	}
	var specs []lint.PackageSpec
	for _, sub := range subdirs {
		dir := filepath.Join(root, sub)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var files []string
		for _, e := range entries {
			if strings.HasSuffix(e.Name(), ".go") {
				files = append(files, filepath.Join(dir, e.Name()))
			}
		}
		specs = append(specs, lint.PackageSpec{
			ImportPath: "fix/" + rule + "/" + sub,
			Dir:        dir,
			Files:      files,
			Analyze:    true,
		})
	}
	pkgs, err := lint.Check(specs)
	if err != nil {
		t.Fatalf("typechecking fixtures: %v", err)
	}
	return pkgs, root
}

// render formats surviving diagnostics one per line, with file paths relative
// to the fixture root so goldens are machine-independent.
func render(diags []lint.Diagnostic, root string) string {
	var b strings.Builder
	for _, d := range diags {
		rel, err := filepath.Rel(root, d.Pos.Filename)
		if err != nil {
			rel = d.Pos.Filename
		}
		fmt.Fprintf(&b, "%s:%d: [%s] %s\n", filepath.ToSlash(rel), d.Pos.Line, d.Rule, d.Message)
	}
	return b.String()
}

func TestGolden(t *testing.T) {
	for _, fx := range fixtures {
		t.Run(fx.rule, func(t *testing.T) {
			pkgs, root := loadFixture(t, fx.rule, fx.subdirs)
			got := render(lint.Run(pkgs, []*lint.Analyzer{fx.analyzer}), root)
			golden := filepath.Join(root, "expected.txt")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("reading golden (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("diagnostics mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}
