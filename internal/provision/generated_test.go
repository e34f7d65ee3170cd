package provision

import (
	"testing"

	"repro/internal/check"
	"repro/internal/core"
)

// TestProvisionOnGeneratedInstances runs batch provisioning — including the
// improvement passes, which exercise the table's reroute-and-restore path —
// over generated topologies and demand sets, auditing every placement with
// the check oracle and the table's audit, and verifying full capacity
// conservation after every connection is torn down.
func TestProvisionOnGeneratedInstances(t *testing.T) {
	configs := []Config{
		{Algorithm: core.MinCost},
		{Algorithm: core.MinLoadCost, Order: LongestFirst},
		{Algorithm: core.MinCost, Order: ShortestFirst},
		{Algorithm: core.MinCost, ImprovePasses: 2},
		{Algorithm: core.MinLoadCost, ImprovePasses: 1},
	}
	for seed := int64(0); seed < 12; seed++ {
		in := check.GenerateSeeded(seed, 7)
		var demands []Demand
		for i, op := range in.Ops {
			if op.Teardown < 0 {
				demands = append(demands, Demand{ID: i, Src: op.Src, Dst: op.Dst})
			}
		}
		for ci, cfg := range configs {
			net, err := in.Build()
			if err != nil {
				t.Fatalf("seed %d: build: %v", seed, err)
			}
			baseAvail := net.TotalAvailable()
			res := Provision(net, demands, cfg)
			if res.Placed+res.Failed != len(demands) {
				t.Fatalf("seed %d cfg %d: %d placed + %d failed ≠ %d demands",
					seed, ci, res.Placed, res.Failed, len(demands))
			}
			if len(res.Placements) != len(demands) {
				t.Fatalf("seed %d cfg %d: %d placements for %d demands",
					seed, ci, len(res.Placements), len(demands))
			}
			totalCost := 0.0
			for _, pl := range res.Placements {
				if pl.Route == nil {
					continue
				}
				d := pl.Demand
				if err := check.Path(net, pl.Route.Primary, d.Src, d.Dst); err != nil {
					t.Fatalf("seed %d cfg %d demand %d: primary: %v", seed, ci, d.ID, err)
				}
				if err := check.Path(net, pl.Route.Backup, d.Src, d.Dst); err != nil {
					t.Fatalf("seed %d cfg %d demand %d: backup: %v", seed, ci, d.ID, err)
				}
				if err := check.Reserved(net, pl.Route.Primary); err != nil {
					t.Fatalf("seed %d cfg %d demand %d: primary: %v", seed, ci, d.ID, err)
				}
				if err := check.Reserved(net, pl.Route.Backup); err != nil {
					t.Fatalf("seed %d cfg %d demand %d: backup: %v", seed, ci, d.ID, err)
				}
				if err := check.EdgeDisjoint(pl.Route.Primary, pl.Route.Backup); err != nil {
					t.Fatalf("seed %d cfg %d demand %d: %v", seed, ci, d.ID, err)
				}
				// The recorded cost must match the Eq. 1 recomputation on the
				// final residual state (per-link costs are load-independent).
				got := check.PathCost(net, pl.Route.Primary) + check.PathCost(net, pl.Route.Backup)
				if err := check.Cost(net, pl.Route.Primary, check.PathCost(net, pl.Route.Primary)); err != nil {
					t.Fatalf("seed %d cfg %d demand %d: %v", seed, ci, d.ID, err)
				}
				if diff := got - pl.Route.Cost; diff > 1e-9 || diff < -1e-9 {
					t.Fatalf("seed %d cfg %d demand %d: recorded cost %g, recomputed %g",
						seed, ci, d.ID, pl.Route.Cost, got)
				}
				totalCost += pl.Route.Cost
			}
			if diff := totalCost - res.TotalCost; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("seed %d cfg %d: TotalCost = %g, placements sum to %g",
					seed, ci, res.TotalCost, totalCost)
			}
			if got := net.NetworkLoad(); got != res.NetworkLoad {
				t.Fatalf("seed %d cfg %d: NetworkLoad = %g, network says %g",
					seed, ci, res.NetworkLoad, got)
			}
			mustAudit(t, res.Table)

			// Tear everything down: improvement passes must not have leaked
			// channels from their re-routing churn.
			drain(t, res.Table)
			if got := net.TotalAvailable(); got != baseAvail {
				t.Fatalf("seed %d cfg %d: capacity leak: %d available, want %d", seed, ci, got, baseAvail)
			}
		}
	}
}
