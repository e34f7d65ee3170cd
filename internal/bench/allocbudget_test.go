//go:build !race

// Allocation-budget regression gate, excluded from -race runs (the
// detector's instrumentation inflates allocation counts).
package bench

import (
	"encoding/json"
	"os"
	"testing"
)

// allocSlack is the tolerated regression over the checked-in budget, in
// allocs/op. It is absolute and below the run's 200 arrivals, so one leaked
// allocation per arrival fails the gate. Improvements should be banked by
// lowering testdata/alloc_budget.json.
const allocSlack = 100

// TestSimAllocBudget runs the dynamic-simulation benchmarks briefly and
// fails when allocs/op exceed testdata/alloc_budget.json by more than
// allocSlack — the CI tripwire for the arena/pooling work. It is the
// simulator's only whole-run allocation gate. A run has 200 arrivals, so
// one leaked allocation per arrival adds 200 allocs/op, twice the slack.
// Single per-request allocations are pinned by the warm-router budgets in
// internal/core.
func TestSimAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed; skipped in -short")
	}
	data, err := os.ReadFile("testdata/alloc_budget.json")
	if err != nil {
		t.Fatalf("read budget file: %v", err)
	}
	var budgets map[string]int64
	if err := json.Unmarshal(data, &budgets); err != nil {
		t.Fatalf("parse budget file: %v", err)
	}
	arms := map[string]func(*testing.B){
		"sim_nsfnet_dynamic":       BenchmarkSimNSFNETDynamic,
		"sim_nsfnet_dynamic_exact": BenchmarkSimNSFNETDynamicExact,
	}
	for name, fn := range arms {
		budget, ok := budgets[name]
		if !ok {
			t.Errorf("%s: no entry in alloc_budget.json", name)
			continue
		}
		res := testing.Benchmark(fn)
		got := res.AllocsPerOp()
		limit := budget + allocSlack
		t.Logf("%s: %d allocs/op (budget %d, limit %d)", name, got, budget, limit)
		if got > limit {
			t.Errorf("%s: %d allocs/op exceeds budget %d by more than %d",
				name, got, budget, allocSlack)
		}
	}
}
