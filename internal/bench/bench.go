// Package bench regenerates every experiment in DESIGN.md's per-experiment
// index (F1, E1–E14, E18, E19; E15–E17, the shared-backup, SRLG and k-path
// extensions, are retired). The paper itself publishes no measured tables —
// it is an algorithms paper whose only figure illustrates the
// auxiliary-graph construction — so each experiment here regenerates a
// quantitative claim (approximation ratios, complexity scaling,
// construction inventory) or a synthetic evaluation of the behaviour the
// paper argues for (fewer reconfigurations, faster restoration, lower
// blocking). EXPERIMENTS.md records claim-vs-measured for each.
package bench

import (
	"fmt"
	"strings"
)

// Options scales an experiment run.
type Options struct {
	// Quick shrinks instance sizes and seed counts so the whole suite runs
	// in seconds (used by tests); the full configuration is the default.
	Quick bool
	// Seeds overrides the number of random repetitions (0 = experiment
	// default).
	Seeds int
}

func (o Options) seeds(full, quick int) int {
	if o.Seeds > 0 {
		return o.Seeds
	}
	if o.Quick {
		return quick
	}
	return full
}

// Table is a rendered experiment result.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "note: %s\n", t.Notes)
	}
	return b.String()
}

// Experiment is a runnable experiment generator.
type Experiment struct {
	ID    string
	Title string
	Run   func(Options) *Table
}

// Registry lists every experiment in DESIGN.md order.
func Registry() []Experiment {
	return []Experiment{
		{"F1", "Auxiliary-graph construction inventory (Figure 1)", F1},
		{"E1", "Approximation ratio vs exact optimum (Theorem 2)", E1},
		{"E2", "Running-time scaling (Theorem 1)", E2},
		{"E3", "Load ratio vs exact min load (Theorem 3)", E3},
		{"E4", "Reconfiguration count: cost-only vs load-aware (§4)", E4},
		{"E5", "Active vs passive restoration (§1)", E5},
		{"E6", "Lemma 2 refinement improvement", E6},
		{"E7", "Suurballe-based routing vs two-step baseline", E7},
		{"E8", "Exponential congestion-weight base ablation (§4.1)", E8},
		{"E9", "ILP exact solver vs exhaustive oracle (§3.1)", E9},
		{"E10", "Blocking probability vs offered load", E10},
		{"E11", "Edge-disjoint vs node-disjoint protection (§1)", E11},
		{"E12", "Static provisioning: ordering and improvement ablation", E12},
		{"E13", "Wavelength-conversion gain (Lemma 1 regime vs §3.3 regime)", E13},
		{"E14", "Adaptive vs fixed-alternate robust routing", E14},
		{"E18", "Traffic-model sensitivity: uniform vs gravity vs heavy-tailed", E18},
		{"E19", "Reconfiguration gain after cost-only vs load-aware loading", E19},
	}
}

// Run executes the experiment with the given ID.
func Run(id string, o Options) (*Table, error) {
	for _, e := range Registry() {
		if strings.EqualFold(e.ID, id) {
			return e.Run(o), nil
		}
	}
	return nil, fmt.Errorf("bench: unknown experiment %q", id)
}

// All runs every experiment.
func All(o Options) []*Table {
	reg := Registry()
	out := make([]*Table, len(reg))
	for i, e := range reg {
		out[i] = e.Run(o)
	}
	return out
}

// fmtF formats a float compactly.
func fmtF(x float64) string { return fmt.Sprintf("%.4g", x) }

// fmtPct formats a fraction as a percentage.
func fmtPct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }

// Markdown renders the table as GitHub-flavoured markdown (used to refresh
// EXPERIMENTS.md).
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Title)
	b.WriteString("| " + strings.Join(t.Columns, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", len(t.Columns)) + "\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "\n*%s*\n", t.Notes)
	}
	return b.String()
}

// CSV renders the table as comma-separated values with a header row. Cells
// containing commas or quotes are quoted.
func (t *Table) CSV() string {
	var b strings.Builder
	writeRec := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			b.WriteString(c)
		}
		b.WriteByte('\n')
	}
	writeRec(t.Columns)
	for _, row := range t.Rows {
		writeRec(row)
	}
	return b.String()
}
