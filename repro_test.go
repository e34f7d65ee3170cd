package repro

import (
	"repro/internal/topofile"

	"math"
	"testing"
)

// End-to-end exercise of the public facade: build, route, admit,
// simulate — the same flow the examples use.

func TestFacadeQuickstartFlow(t *testing.T) {
	net := NSFNET(TopoConfig{W: 8})
	route, ok := ApproxMinCost(net, 0, 13, nil)
	if !ok {
		t.Fatal("NSFNET must route any pair")
	}
	if err := route.Primary.ValidateAvailable(net, 0, 13); err != nil {
		t.Fatal(err)
	}
	if !route.Primary.EdgeDisjoint(route.Backup) {
		t.Fatal("paths not disjoint")
	}
	tab := NewConnectionTable(net)
	if _, err := tab.Admit(1, 0, 13, route.Pair()); err != nil {
		t.Fatal(err)
	}
	if net.NetworkLoad() == 0 {
		t.Fatal("admission did not reserve capacity")
	}
	if err := tab.Audit(); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Teardown(1); err != nil {
		t.Fatal(err)
	}
	if net.NetworkLoad() != 0 {
		t.Fatal("teardown leaked capacity")
	}
}

func TestFacadeAllRouters(t *testing.T) {
	for name, fn := range map[string]func(*Network, int, int, *RouteOptions) (*Route, bool){
		"ApproxMinCost": ApproxMinCost,
		"MinLoad":       MinLoad,
		"MinLoadCost":   MinLoadCost,
		"TwoStep":       TwoStepMinCost,
	} {
		net := ARPA2(TopoConfig{W: 4})
		r, ok := fn(net, 0, 19, nil)
		if !ok {
			t.Errorf("%s failed on ARPA2", name)
			continue
		}
		if r.Cost <= 0 {
			t.Errorf("%s reported non-positive cost", name)
		}
	}
}

func TestFacadeExactSolvers(t *testing.T) {
	net := NewNetwork(4, 2)
	net.AddUniformLink(0, 1, 1)
	net.AddUniformLink(1, 3, 1)
	net.AddUniformLink(0, 2, 2)
	net.AddUniformLink(2, 3, 2)
	net.SetAllConverters(NewFullConverter(2, 0.5))
	e, ok1 := ExactExhaustive(net, 0, 3)
	i, ok2 := ExactILP(net, 0, 3)
	if !ok1 || !ok2 {
		t.Fatal("exact solvers failed")
	}
	if math.Abs(e.Cost-i.Cost) > 1e-6 {
		t.Fatalf("exhaustive %g != ilp %g", e.Cost, i.Cost)
	}
	if math.Abs(e.Cost-6) > 1e-9 {
		t.Fatalf("cost = %g, want 6", e.Cost)
	}
}

func TestFacadeConverters(t *testing.T) {
	if NewNoConverter().Allowed(0, 1) {
		t.Fatal("NoConverter should forbid")
	}
	if !NewRangeConverter(2, 1).Allowed(0, 2) {
		t.Fatal("RangeConverter should allow within range")
	}
	mc := NewMatrixConverter(2, [][]float64{{0, 3}, {-1, 0}})
	if !mc.Allowed(0, 1) || mc.Allowed(1, 0) {
		t.Fatal("MatrixConverter wrong")
	}
}

func TestFacadeTopologies(t *testing.T) {
	if NSFNET(TopoConfig{W: 2}).Nodes() != 14 {
		t.Fatal("NSFNET wrong")
	}
	if ARPA2(TopoConfig{W: 2}).Nodes() != 20 {
		t.Fatal("ARPA2 wrong")
	}
	if Ring(5, TopoConfig{W: 2}).Links() != 10 {
		t.Fatal("Ring wrong")
	}
	if Grid(2, 3, TopoConfig{W: 2}).Nodes() != 6 {
		t.Fatal("Grid wrong")
	}
	if Complete(4, TopoConfig{W: 2}).Links() != 12 {
		t.Fatal("Complete wrong")
	}
	if Waxman(8, 0.4, 0.4, 1, TopoConfig{W: 2}).Nodes() != 8 {
		t.Fatal("Waxman wrong")
	}
}

func TestFacadeSimulation(t *testing.T) {
	net := NSFNET(TopoConfig{W: 4})
	sim := NewSim(net, SimConfig{Algorithm: AlgoMinLoadCost, Restoration: RestoreActive, Seed: 1})
	reqs := Poisson(PoissonConfig{Nodes: 14, ArrivalRate: 20, MeanHolding: 1, Count: 200, Seed: 2})
	m := sim.Run(reqs)
	if m.Offered != 200 || m.Accepted == 0 {
		t.Fatalf("metrics wrong: %+v", m)
	}
	if m.BlockingProbability() < 0 || m.BlockingProbability() > 1 {
		t.Fatal("blocking probability out of range")
	}
}

func TestFacadeOptimalSemilightpath(t *testing.T) {
	net := NSFNET(TopoConfig{W: 4})
	p, cost, ok := OptimalSemilightpath(net, 0, 13)
	if !ok || cost <= 0 {
		t.Fatal("single-path routing failed")
	}
	if err := p.ValidateAvailable(net, 0, 13); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeNodeDisjoint(t *testing.T) {
	net := NSFNET(TopoConfig{W: 4})
	r, ok := MinCostNodeDisjoint(net, 0, 13, nil)
	if !ok {
		t.Fatal("NSFNET should route node-disjoint pairs")
	}
	seen := map[int]bool{}
	for _, v := range r.Primary.Nodes(net)[1:r.Primary.Len()] {
		seen[v] = true
	}
	for _, v := range r.Backup.Nodes(net)[1:r.Backup.Len()] {
		if seen[v] {
			t.Fatal("paths share an intermediate node")
		}
	}
}

func TestFacadeProvision(t *testing.T) {
	net := NSFNET(TopoConfig{W: 8})
	res := Provision(net, []Demand{
		{ID: 0, Src: 0, Dst: 13},
		{ID: 1, Src: 3, Dst: 9},
	}, ProvisionConfig{Algorithm: AlgoMinCost, Order: OrderLongestFirst, ImprovePasses: 1})
	if res.Placed != 2 || res.Failed != 0 {
		t.Fatalf("placed=%d failed=%d", res.Placed, res.Failed)
	}
}

func TestFacadeTopologyFiles(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/nsf.json"
	net := NSFNET(TopoConfig{W: 4})
	if err := SaveTopology(path, net, topofile.ConverterSpec{Kind: "full", Cost: 0.5}); err != nil {
		t.Fatal(err)
	}
	back, err := LoadTopology(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Nodes() != 14 || back.Links() != 42 {
		t.Fatal("round trip changed topology")
	}
}

func TestFacadeMatrices(t *testing.T) {
	m := NewGravityMatrix([]float64{5, 1, 1, 1})
	reqs := MatrixPoisson(MatrixConfig{
		Matrix: m, ArrivalRate: 1, MeanHolding: 1, Count: 50, Seed: 1,
		Holding: HoldingDeterministic,
	})
	if len(reqs) != 50 || reqs[0].Holding != 1 {
		t.Fatal("matrix stream wrong")
	}
	if NewUniformMatrix(3).Nodes() != 3 {
		t.Fatal("uniform matrix wrong")
	}
}

func TestFacadeReoptimize(t *testing.T) {
	prov := Provision(NSFNET(TopoConfig{W: 4}), []Demand{{ID: 0, Src: 0, Dst: 13}},
		ProvisionConfig{Algorithm: AlgoMinCost})
	if prov.Placed != 1 {
		t.Fatal("setup failed")
	}
	res := Reoptimize(prov.Table)
	if res.LoadAfter > res.LoadBefore+1e-12 {
		t.Fatal("reoptimize worsened load")
	}
	if err := prov.Table.Audit(); err != nil {
		t.Fatal(err)
	}
}
