package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// Comparison outcomes for one (workload, metric) pair.
const (
	statusOK         = "ok"         // no worse than the bound allows
	statusRegressed  = "regressed"  // change median worse than the bound allows
	statusUnresolved = "unresolved" // parent spread wider than the bound
	statusGain       = "gain"       // the named claim holds
	statusNotMet     = "not-met"    // the named claim does not hold
)

// side summarises one side's runs of a pair.
type side struct {
	n           int
	q1, med, q3 float64
}

func summarize(vs []float64) side {
	q1, q3 := quartiles(vs)
	return side{n: len(vs), q1: q1, med: median(vs), q3: q3}
}

// better reports whether a reads better than b for metric m.
func better(m EndToEnd, a, b float64) bool {
	if m.Better == "higher" {
		return a > b
	}
	return a < b
}

// judge applies the benchmark's rules to one pair. parent and change are
// the two sides' values in run order; runs at the same index form a pair.
func judge(m EndToEnd, parent, change []float64, claimed bool) string {
	p, c := summarize(parent), summarize(change)
	if claimed {
		wins := 0
		pairs := min(len(parent), len(change))
		for i := 0; i < pairs; i++ {
			if better(m, change[i], parent[i]) {
				wins++
			}
		}
		if pairs > 0 && wins*10 >= pairs*9 && better(m, c.med, p.med) && math.Abs(c.med-p.med) > p.q3-p.q1 {
			return statusGain
		}
		return statusNotMet
	}
	limit := math.Abs(p.med) * m.Bound
	if p.q3-p.q1 > limit {
		worstChange, bestParent := slices.Max(change), slices.Min(parent)
		if m.Better == "higher" {
			worstChange, bestParent = slices.Min(change), slices.Max(parent)
		}
		if !better(m, worstChange, bestParent) {
			return statusUnresolved
		}
	}
	if better(m, p.med, c.med) && math.Abs(c.med-p.med) > limit {
		return statusRegressed
	}
	return statusOK
}

// loadRuns collects one side's untraced runs: those in DIR/results.json and
// in DIR/*/results.json, one subdirectory per invocation. Each workload's
// runs come back in the order they started.
func loadRuns(dir string) (map[string][]runRecord, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*", "results.json"))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", dir, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "results.json")); err == nil {
		files = append(files, filepath.Join(dir, "results.json"))
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("%s: no results.json in it or in its subdirectories", dir)
	}
	out := map[string][]runRecord{}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var rf resultsFile
		if err := json.Unmarshal(b, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		for _, r := range rf.Runs {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	for _, rs := range out {
		slices.SortFunc(rs, func(a, b runRecord) int { return a.Started.Compare(b.Started) })
	}
	return out, nil
}

// interleaved reports whether the i-th runs of the two sides, for every i,
// ran next to each other, with no other run of the workload between them.
// Only then does a drift in the host's speed fall on both runs of a pair.
func interleaved(parent, change []runRecord) bool {
	if len(parent) != len(change) {
		return false
	}
	for i := 0; i+1 < len(parent); i++ {
		last := max(parent[i].Started.UnixNano(), change[i].Started.UnixNano())
		next := min(parent[i+1].Started.UnixNano(), change[i+1].Started.UnixNano())
		if last >= next {
			return false
		}
	}
	return true
}

func valuesOf(rs []runRecord, metric string) []float64 {
	var vs []float64
	for _, r := range rs {
		if v, ok := r.Result.Metrics[metric]; ok {
			vs = append(vs, v.Value)
		}
	}
	return vs
}

// compareMain is "compare PARENT CHANGE [-claim metric@workload]". Each side
// is a directory holding a results.json, or subdirectories that each hold
// one; a claim needs the two sides' runs to alternate. It exits 1 when a
// gated pair regressed or the claim is not met.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	claim := fs.String("claim", "", "metric@workload the change claims to improve")
	var dirs []string
	for {
		_ = fs.Parse(args) // ExitOnError: Parse exits on error
		if fs.NArg() == 0 {
			break
		}
		dirs = append(dirs, fs.Arg(0))
		args = fs.Args()[1:]
	}
	if len(dirs) != 2 {
		fatalf("usage: compare PARENT CHANGE [-claim metric@workload]")
	}
	claimMetric, claimWorkload, _ := strings.Cut(*claim, "@")
	if *claim != "" {
		if _, ok := endToEndByName(claimMetric); !ok || !slices.ContainsFunc(workloads, func(w Workload) bool { return w.Name == claimWorkload }) {
			fatalf("-claim %q: want an end-to-end metric @ a workload", *claim)
		}
	}
	parent, err := loadRuns(dirs[0])
	if err != nil {
		fatalf("%v", err)
	}
	change, err := loadRuns(dirs[1])
	if err != nil {
		fatalf("%v", err)
	}

	code := 0
	fmt.Printf("%-14s %-16s %-13s %34s %34s\n", "workload", "metric", "status", "parent q1/median/q3 (n)", "change q1/median/q3 (n)")
	for _, w := range allWorkloads() {
		paired := interleaved(parent[w.Name], change[w.Name])
		if !paired {
			fmt.Printf("%-14s runs do not alternate between the sides: host drift may fall on one side, and no claim can be met\n", w.Name)
		}
		for _, m := range endToEnd {
			pv, cv := valuesOf(parent[w.Name], m.Name), valuesOf(change[w.Name], m.Name)
			if len(pv) == 0 || len(cv) == 0 {
				fmt.Printf("%-14s %-16s missing on one side\n", w.Name, m.Name)
				code = 1
				continue
			}
			claimed := m.Name == claimMetric && w.Name == claimWorkload
			st := judge(m, pv, cv, claimed)
			switch {
			case claimed && !paired:
				st = statusNotMet
			case !claimed && (ungated[Pair{m.Name, w.Name}] || isDiagnostic(w.Name)):
				st = "(" + st + ")" // reported, never gated
			}
			if st == statusRegressed || st == statusNotMet {
				code = 1
			}
			p, c := summarize(pv), summarize(cv)
			fmt.Printf("%-14s %-16s %-13s %34s %34s\n", w.Name, m.Name, st,
				fmt.Sprintf("%.4g/%.4g/%.4g (%d)", p.q1, p.med, p.q3, p.n),
				fmt.Sprintf("%.4g/%.4g/%.4g (%d)", c.q1, c.med, c.q3, c.n))
		}
	}
	return code
}
