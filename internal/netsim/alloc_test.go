//go:build !race

// Allocation-regression tests, excluded from -race runs (the detector's
// instrumentation breaks testing.AllocsPerOp accounting).
package netsim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/topo"
	"repro/internal/workload"
)

// simLoopAllocBudget is the whole-run allocation budget for the headline
// NSFNET dynamic scenario (200 arrivals, candidate tier on): network clone +
// shared-skeleton build + event and connection-record warm-up plus the
// residual per-arrival cost. Measured ~1.7k; the margin absorbs runtime and
// map-layout noise without letting a leaked per-arrival allocation
// (≥ 200/run) slip through.
const simLoopAllocBudget = 2530

// TestSimLoopAllocBudget pins the simulator's steady-state allocation
// behavior end to end: recycled connection-table records, the value-heap
// event queue, arena-backed routing results, and the incremental-reweight
// path together must keep a full 200-arrival run under the budget.
func TestSimLoopAllocBudget(t *testing.T) {
	reqs := workload.Poisson(workload.PoissonConfig{
		Nodes: 14, ArrivalRate: 10, MeanHolding: 2, Count: 200, Seed: 7,
	})
	net := topo.NSFNET(topo.Config{W: 8})
	tab := core.NewCandidateTable(net, 4)
	run := func() {
		sim := New(net, Config{
			Algorithm: MinCost,
			Opts:      &core.Options{CandidateTable: tab},
		})
		sim.Run(reqs)
	}
	run() // warm shared caches outside the measured window
	if n := testing.AllocsPerRun(3, run); n > simLoopAllocBudget {
		t.Fatalf("dynamic sim run allocates %.0f, budget %d", n, simLoopAllocBudget)
	}
}
