package main

import (
	"testing"
)

// TestSmokeAllWorkloads runs every workload, diagnostic ones included, at
// about 1% of its full length, untraced and traced, with every correctness
// check, and requires a correct result carrying every declared metric.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range allWorkloads() {
		for _, traced := range []bool{false, true} {
			c := runConfig{seed: 1, seconds: 0.15}
			if traced {
				c.rec = newRecorder()
			}
			o, err := runners[w.Name](c)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w.Name, traced, err)
			}
			res, _, err := buildResult(o, traced)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("%s (traced %v): correct %v, %d of %d failed (first: %s), violations %v",
					w.Name, traced, res.Correct, res.Failed, res.Attempted, o.firstFailure, o.violations)
			}
			want := len(endToEnd)
			if traced {
				want = len(perLayer)
			}
			if len(res.Metrics) != want {
				t.Fatalf("%s (traced %v): %d metrics, want %d", w.Name, traced, len(res.Metrics), want)
			}
		}
	}
}
