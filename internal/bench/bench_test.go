package bench

import (
	"strconv"
	"strings"
	"testing"
)

func quick() Options { return Options{Quick: true, Seeds: 2} }

func TestRegistryCompleteAndOrdered(t *testing.T) {
	reg := Registry()
	want := []string{"F1", "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14", "E18", "E19"}
	if len(reg) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(reg), len(want))
	}
	for i, e := range reg {
		if e.ID != want[i] {
			t.Fatalf("registry[%d] = %s, want %s", i, e.ID, want[i])
		}
		if e.Title == "" || e.Run == nil {
			t.Fatalf("experiment %s incomplete", e.ID)
		}
	}
}

func TestRunDispatch(t *testing.T) {
	tb, err := Run("f1", Options{})
	if err != nil || tb.ID != "F1" {
		t.Fatalf("Run(f1) = %v, %v", tb, err)
	}
	if _, err := Run("E99", Options{}); err == nil {
		t.Fatal("unknown experiment should error")
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{ID: "X", Title: "demo", Columns: []string{"a", "bbbb"}, Notes: "n"}
	tb.AddRow("1", "2")
	s := tb.String()
	for _, want := range []string{"== X: demo ==", "a", "bbbb", "note: n"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendering missing %q:\n%s", want, s)
		}
	}
}

// parsePct converts "12.3%" to 0.123.
func parsePct(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		t.Fatalf("bad percent %q", s)
	}
	return v / 100
}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("bad float %q", s)
	}
	return v
}

func TestF1InventoryMatches(t *testing.T) {
	tb := F1(quick())
	for _, row := range tb.Rows {
		if row[1] == "conv edges" {
			continue // bounded, not equal
		}
		if row[3] != row[4] {
			t.Fatalf("row %v: predicted %s != built %s", row, row[3], row[4])
		}
	}
}

func TestE1RatioWithinTheorem2(t *testing.T) {
	tb := E1(Options{Quick: true, Seeds: 8})
	if len(tb.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range tb.Rows {
		if row[3] == "0" {
			continue
		}
		if maxR := parseF(t, row[6]); maxR > 2.000001 {
			t.Fatalf("max ratio %g violates Theorem 2 (row %v)", maxR, row)
		}
		if within := parsePct(t, row[7]); within < 1 {
			t.Fatalf("ratio bound violated in %v", row)
		}
	}
}

func TestE3LoadRatioWithinTheorem3(t *testing.T) {
	tb := E3(Options{Quick: true, Seeds: 8})
	for _, row := range tb.Rows {
		if row[3] == "0" {
			continue
		}
		if within := parsePct(t, row[6]); within < 0.99 {
			t.Fatalf("load ratio bound violated: %v", row)
		}
	}
}

func TestE6RefinementNeverWorse(t *testing.T) {
	tb := E6(Options{Quick: true, Seeds: 8})
	for _, row := range tb.Rows {
		if row[2] == "0" {
			continue
		}
		if r := parseF(t, row[3]); r > 1.000001 {
			t.Fatalf("refined/naive ratio %g > 1: %v", r, row)
		}
	}
}

func TestE7BaselineNeverCheaper(t *testing.T) {
	tb := E7(Options{Quick: true, Seeds: 5})
	foundTrap := false
	for _, row := range tb.Rows {
		if row[0] == "trap-6node" {
			foundTrap = true
			if parsePct(t, row[3]) != 0 {
				t.Fatalf("two-step should always fail on the trap: %v", row)
			}
			if parsePct(t, row[2]) != 1 {
				t.Fatalf("approx should always succeed on the trap: %v", row)
			}
		}
	}
	if !foundTrap {
		t.Fatal("trap case missing")
	}
}

func TestE9Agreement(t *testing.T) {
	tb := E9(Options{Quick: true, Seeds: 3})
	for _, row := range tb.Rows {
		if parsePct(t, row[3]) != 1 {
			t.Fatalf("ILP and exhaustive disagree: %v", row)
		}
	}
}

// Smoke-run the remaining (simulation-heavy) experiments at minimal scale.
func TestSimulationExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiments are slow")
	}
	for _, id := range []string{"E2", "E4", "E5", "E8", "E10"} {
		tb, err := Run(id, quick())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tb.Rows) == 0 {
			t.Fatalf("%s produced no rows", id)
		}
		if tb.String() == "" {
			t.Fatalf("%s rendered empty", id)
		}
	}
}

func TestAllQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite is slow")
	}
	tables := All(Options{Quick: true, Seeds: 2})
	if len(tables) != len(Registry()) {
		t.Fatalf("All returned %d tables", len(tables))
	}
}

func TestE11NodeDisjointImpliesEdgeDisjoint(t *testing.T) {
	tb := E11(Options{Quick: true, Seeds: 10})
	for _, row := range tb.Rows {
		okE := parsePct(t, row[2])
		okN := parsePct(t, row[3])
		if okN > okE+1e-9 {
			t.Fatalf("node-disjoint success exceeds edge-disjoint: %v", row)
		}
	}
}

func TestE12ImprovementHelps(t *testing.T) {
	tb := E12(Options{Quick: true, Seeds: 3})
	var base, improved float64
	var haveBase, haveImproved bool
	for _, row := range tb.Rows {
		if row[0] == "in-order" && row[1] == "0" {
			base = parseF(t, row[3])
			haveBase = true
		}
		if row[0] == "in-order" && row[1] == "3" {
			improved = parseF(t, row[3])
			haveImproved = true
		}
	}
	if !haveBase || !haveImproved {
		t.Fatal("rows missing")
	}
	if improved > base+1e-9 {
		t.Fatalf("improvement increased mean cost: %g > %g", improved, base)
	}
}

func TestE13ConversionGain(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	tb := E13(Options{Quick: true, Seeds: 3})
	// Full conversion never blocks more than no conversion at the same W.
	var none, full float64
	for _, row := range tb.Rows {
		if row[1] != "4" {
			continue
		}
		switch row[0] {
		case "none":
			none = parsePct(t, row[2])
		case "full":
			full = parsePct(t, row[2])
		}
	}
	if full > none+1e-9 {
		t.Fatalf("full conversion blocks more than none: %g > %g", full, none)
	}
}

func TestE14AdaptiveNeverWorseThanFixedK1(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	tb := E14(Options{Quick: true, Seeds: 3})
	var adaptive, fixed1 float64
	for _, row := range tb.Rows {
		switch row[1] {
		case "adaptive (§3.3)":
			adaptive = parsePct(t, row[2])
		case "fixed-alt k=1":
			fixed1 = parsePct(t, row[2])
		}
	}
	if adaptive > fixed1+1e-9 {
		t.Fatalf("adaptive blocking %g exceeds fixed k=1 %g", adaptive, fixed1)
	}
}

func TestMarkdownAndCSVRendering(t *testing.T) {
	tb := &Table{ID: "X", Title: "demo", Columns: []string{"a", "b"}, Notes: "n"}
	tb.AddRow("1", "va,l\"ue")
	md := tb.Markdown()
	for _, want := range []string{"### X — demo", "| a | b |", "| 1 |", "*n*"} {
		if !strings.Contains(md, want) {
			t.Fatalf("markdown missing %q:\n%s", want, md)
		}
	}
	csv := tb.CSV()
	if !strings.Contains(csv, "a,b\n") {
		t.Fatalf("csv header wrong:\n%s", csv)
	}
	if !strings.Contains(csv, `"va,l""ue"`) {
		t.Fatalf("csv quoting wrong:\n%s", csv)
	}
}

func TestE19ReconfigNeverWorsens(t *testing.T) {
	tb := E19(Options{Quick: true, Seeds: 3})
	for _, row := range tb.Rows {
		if parseF(t, row[2]) > parseF(t, row[1])+1e-9 {
			t.Fatalf("reconfiguration worsened load: %v", row)
		}
	}
}
