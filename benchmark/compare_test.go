package main

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

func TestJudge(t *testing.T) {
	lat := EndToEnd{Name: "latency_p50_us", Unit: "us", Better: "lower", Bound: 0.10}
	ops := EndToEnd{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.08}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	for _, tc := range []struct {
		name           string
		m              EndToEnd
		parent, change []float64
		claimed        bool
		want           string
	}{
		{"tie", lat, steady, steady, false, statusOK},
		{"tie claimed", lat, steady, steady, true, statusNotMet},
		{"small drift within bound", lat, steady, scale(steady, 1.05), false, statusOK},
		{"regression", lat, steady, scale(steady, 1.2), false, statusRegressed},
		{"throughput regression", ops, steady, scale(steady, 0.85), false, statusRegressed},
		{"gain", lat, steady, scale(steady, 0.8), true, statusGain},
		{"throughput gain", ops, steady, scale(steady, 1.2), true, statusGain},
		{"gain without the claim is just no regression", lat, steady, scale(steady, 0.8), false, statusOK},
		// Wins 8 of 10 pairs: short of nine tenths.
		{"gain on too few pairs", lat, steady, []float64{80, 80, 80, 80, 80, 80, 80, 80, 200, 200}, true, statusNotMet},
		// Parent quartiles 78.75..121.25 span 42.5% of the median: wider than
		// the 10% bound, so neither "ok" nor "regressed" can be told.
		{"unresolved", lat, []float64{70, 130, 80, 120, 90, 110, 100, 100, 75, 125}, scale(steady, 1.02), false, statusUnresolved},
		// ...unless every change run beats every parent run.
		{"noisy parent, clear win", lat, []float64{70, 130, 80, 120, 90, 110, 100, 100, 75, 125}, scale(steady, 0.6), false, statusOK},
	} {
		if got := judge(tc.m, tc.parent, tc.change, tc.claimed); got != tc.want {
			t.Errorf("%s: judge = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestRunsPairedInRunOrder: a side can be several invocation directories;
// compare orders each workload's runs by start time, and counts the sides as
// paired only when their runs alternate.
func TestRunsPairedInRunOrder(t *testing.T) {
	root := t.TempDir()
	write := func(dir string, starts ...int) {
		var rf resultsFile
		for _, s := range starts {
			rf.Runs = append(rf.Runs, runRecord{Workload: "sim-mincost", Started: time.Unix(int64(s), 0),
				Result: Result{Metrics: map[string]Value{"ops_per_s": {Value: float64(s)}}}})
		}
		if err := os.MkdirAll(filepath.Join(root, dir), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := writeJSON(filepath.Join(root, dir, "results.json"), rf); err != nil {
			t.Fatal(err)
		}
	}
	// Invocations alternating parent, change, parent, change; the parent's
	// directory names sort against the order its runs started in.
	write("p/x", 20)
	write("p/y", 0)
	write("c/1", 10)
	write("c/2", 30)
	// Two sets run one after the other.
	write("a", 0, 10)
	write("b", 20, 30)
	load := func(dir string) []runRecord {
		runs, err := loadRuns(filepath.Join(root, dir))
		if err != nil {
			t.Fatal(err)
		}
		return runs["sim-mincost"]
	}
	p, c, a, b := load("p"), load("c"), load("a"), load("b")
	if got := valuesOf(p, "ops_per_s"); !slices.Equal(got, []float64{0, 20}) {
		t.Errorf("parent runs %v, want them in start order [0 20]", got)
	}
	if !interleaved(p, c) || !interleaved(c, p) {
		t.Error("alternating invocations not seen as paired")
	}
	if interleaved(a, b) || interleaved(a, c) {
		t.Error("runs that did not alternate seen as paired")
	}
	if _, err := loadRuns(filepath.Join(root, "missing")); err == nil {
		t.Error("a directory without results loaded without error")
	}
}

func scale(vs []float64, k float64) []float64 {
	out := make([]float64, len(vs))
	for i, v := range vs {
		out[i] = v * k
	}
	return out
}
