package provision

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/conns"
	"repro/internal/core"
	"repro/internal/topo"
	"repro/internal/wdm"
)

// mustAudit fails the test when the table's state does not re-derive.
func mustAudit(t *testing.T, tab *conns.Table[struct{}]) {
	t.Helper()
	if err := tab.Audit(); err != nil {
		t.Fatalf("audit: %v", err)
	}
}

// drain tears every connection down through the table, checks that the
// network is idle and the audit clean, and returns how many it tore down.
func drain(t *testing.T, tab *conns.Table[struct{}]) int {
	t.Helper()
	ids := tab.IDs(nil)
	for _, id := range ids {
		if _, err := tab.Teardown(id); err != nil {
			t.Fatalf("teardown %d: %v", id, err)
		}
	}
	if rho := tab.Network().NetworkLoad(); rho != 0 {
		t.Fatalf("ρ = %g after tearing every connection down", rho)
	}
	mustAudit(t, tab)
	return len(ids)
}

func demandsFrom(pairs [][2]int) []Demand {
	ds := make([]Demand, len(pairs))
	for i, p := range pairs {
		ds[i] = Demand{ID: i, Src: p[0], Dst: p[1]}
	}
	return ds
}

func TestProvisionPlacesAll(t *testing.T) {
	net := topo.NSFNET(topo.Config{W: 8})
	ds := demandsFrom([][2]int{{0, 13}, {1, 12}, {2, 11}, {3, 10}})
	res := Provision(net, ds, Config{Algorithm: core.MinCost})
	if res.Placed != 4 || res.Failed != 0 {
		t.Fatalf("placed=%d failed=%d", res.Placed, res.Failed)
	}
	if res.TotalCost <= 0 || res.NetworkLoad <= 0 {
		t.Fatalf("metrics wrong: %+v", res)
	}
	// Every placement is reserved: paths validate against the residual
	// network only after teardown, so check structure instead.
	for _, p := range res.Placements {
		if p.Route == nil {
			t.Fatal("nil route among placed")
		}
		if !p.Route.Primary.EdgeDisjoint(p.Route.Backup) {
			t.Fatal("pair not disjoint")
		}
	}
}

func TestProvisionCountsFailures(t *testing.T) {
	// One wavelength ring: each robust pair consumes the full ring cut
	// around its endpoints, so repeated identical demands must fail.
	net := topo.Ring(6, topo.Config{W: 1})
	ds := demandsFrom([][2]int{{0, 3}, {0, 3}, {0, 3}})
	res := Provision(net, ds, Config{Algorithm: core.MinCost})
	if res.Placed != 1 || res.Failed != 2 {
		t.Fatalf("placed=%d failed=%d, want 1/2", res.Placed, res.Failed)
	}
}

func TestOrderPoliciesChangeOutcome(t *testing.T) {
	// Scarce network where placing the short demand first blocks the long
	// one. LongestFirst places the long demand while the network is empty.
	// Topology: line 0-1-2-3 plus a parallel arc per span (so robust pairs
	// exist), W=1.
	mk := func() *wdm.Network {
		net := wdm.NewNetwork(4, 1)
		for v := 0; v < 3; v++ {
			net.AddUniformLink(v, v+1, 1)
			net.AddUniformLink(v, v+1, 1.5) // parallel fiber
		}
		net.SetAllConverters(wdm.NewFullConverter(1, 0))
		return net
	}
	long := Demand{ID: 0, Src: 0, Dst: 3}
	short := Demand{ID: 1, Src: 1, Dst: 2}
	// In order: short first eats span 1-2 on both fibers → long fails.
	resIn := Provision(mk(), []Demand{short, long}, Config{Algorithm: core.MinCost, Order: InOrder})
	resLong := Provision(mk(), []Demand{short, long}, Config{Algorithm: core.MinCost, Order: LongestFirst})
	if resIn.Placed != 1 {
		t.Fatalf("in-order placed = %d, want 1", resIn.Placed)
	}
	if resLong.Placed != 1 {
		// Long first also blocks short — the point is the *identity* of the
		// placed demand flips.
		t.Fatalf("longest-first placed = %d, want 1", resLong.Placed)
	}
	if resIn.Placements[1].Route != nil {
		t.Fatal("in-order should fail the long demand")
	}
	if resLong.Placements[1].Route == nil {
		t.Fatal("longest-first should place the long demand")
	}
}

func TestShortestFirstMaximisesCount(t *testing.T) {
	net := wdm.NewNetwork(4, 1)
	for v := 0; v < 3; v++ {
		net.AddUniformLink(v, v+1, 1)
		net.AddUniformLink(v, v+1, 1.5)
	}
	net.SetAllConverters(wdm.NewFullConverter(1, 0))
	// Two short demands fit simultaneously; the long one conflicts with both.
	ds := []Demand{{ID: 0, Src: 0, Dst: 3}, {ID: 1, Src: 0, Dst: 1}, {ID: 2, Src: 2, Dst: 3}}
	res := Provision(net, ds, Config{Algorithm: core.MinCost, Order: ShortestFirst})
	if res.Placed != 2 {
		t.Fatalf("shortest-first placed = %d, want 2", res.Placed)
	}
}

func TestImprovementPassReducesCost(t *testing.T) {
	// Improvement never loses a placement, and every re-routing it accepts
	// is strictly cheaper: with the same demands placed, the total falls by
	// something whenever a re-routing was accepted, and never rises.
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var ds []Demand
		for i := 0; i < 24; i++ {
			s := rng.Intn(14)
			d := rng.Intn(13)
			if d >= s {
				d++
			}
			ds = append(ds, Demand{ID: i, Src: s, Dst: d})
		}
		base := Provision(topo.NSFNET(topo.Config{W: 4}), ds, Config{Algorithm: core.MinCost})
		improved := Provision(topo.NSFNET(topo.Config{W: 4}), ds, Config{Algorithm: core.MinCost, ImprovePasses: 3})
		mustAudit(t, base.Table)
		mustAudit(t, improved.Table)
		if improved.Placed < base.Placed {
			t.Fatalf("seed %d: improvement lost placements: %d < %d", seed, improved.Placed, base.Placed)
		}
		if improved.Placed > base.Placed {
			continue // a retried demand adds its cost
		}
		if improved.TotalCost > base.TotalCost+1e-9 {
			t.Fatalf("seed %d: improvement increased cost: %g > %g", seed, improved.TotalCost, base.TotalCost)
		}
		if improved.Improved > 0 && improved.TotalCost >= base.TotalCost-1e-9 {
			t.Fatalf("seed %d: %d re-routings accepted, cost %g → %g", seed, improved.Improved, base.TotalCost, improved.TotalCost)
		}
	}
}

func TestImprovementRetriesFailures(t *testing.T) {
	// With improvement passes, a demand that failed in the greedy pass can
	// be placed after others are re-routed. At minimum the retry path must
	// not corrupt state: placed+failed == len(demands).
	net := topo.Ring(8, topo.Config{W: 2})
	rng := rand.New(rand.NewSource(5))
	var ds []Demand
	for i := 0; i < 10; i++ {
		s := rng.Intn(8)
		d := rng.Intn(7)
		if d >= s {
			d++
		}
		ds = append(ds, Demand{ID: i, Src: s, Dst: d})
	}
	res := Provision(net, ds, Config{Algorithm: core.MinLoadCost, ImprovePasses: 2})
	if res.Placed+res.Failed != len(ds) {
		t.Fatalf("accounting broken: %d + %d != %d", res.Placed, res.Failed, len(ds))
	}
	// Wavelength book-keeping is consistent: tearing every connection down
	// restores the full pool.
	mustAudit(t, res.Table)
	if n := drain(t, res.Table); n != res.Placed {
		t.Fatalf("%d connections in the table, %d placed", n, res.Placed)
	}
}

func TestTotalCostMatchesPlacements(t *testing.T) {
	net := topo.ARPA2(topo.Config{W: 4})
	ds := demandsFrom([][2]int{{0, 19}, {3, 16}, {7, 12}})
	res := Provision(net, ds, Config{Algorithm: core.MinLoadCost, ImprovePasses: 1})
	sum := 0.0
	for _, p := range res.Placements {
		if p.Route != nil {
			sum += p.Route.Cost
		}
	}
	if math.Abs(sum-res.TotalCost) > 1e-9 {
		t.Fatalf("TotalCost %g != sum %g", res.TotalCost, sum)
	}
}
