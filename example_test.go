package repro_test

import (
	"fmt"

	"repro"
)

// The basic flow: build a network, route a protected connection, reserve it.
func Example() {
	// A 4-node diamond: two node-disjoint corridors 0→1→3 and 0→2→3.
	net := repro.NewNetwork(4, 2)
	net.AddUniformLink(0, 1, 1)
	net.AddUniformLink(1, 3, 1)
	net.AddUniformLink(0, 2, 2)
	net.AddUniformLink(2, 3, 2)
	net.SetAllConverters(repro.NewFullConverter(2, 0.5))

	tab := repro.NewConnectionTable(net)
	route, ok := repro.ApproxMinCost(net, 0, 3, nil)
	if !ok {
		panic("unroutable")
	}
	fmt.Printf("pair cost %.0f\n", route.Cost)
	if _, err := tab.Admit(1, 0, 3, route.Pair()); err != nil {
		panic(err)
	}
	fmt.Printf("network load %.2f\n", net.NetworkLoad())
	// Output:
	// pair cost 6
	// network load 0.50
}

// Routing on a standard backbone with the load-aware two-phase algorithm.
func ExampleMinLoadCost() {
	net := repro.NSFNET(repro.TopoConfig{W: 8})
	route, ok := repro.MinLoadCost(net, 0, 13, nil)
	if !ok {
		panic("unroutable")
	}
	fmt.Println("primary hops:", route.Primary.Len())
	fmt.Println("disjoint:", route.Primary.EdgeDisjoint(route.Backup))
	// Output:
	// primary hops: 3
	// disjoint: true
}

// The exact §3.1 integer program on a small instance.
func ExampleExactILP() {
	net := repro.NewNetwork(4, 2)
	net.AddUniformLink(0, 1, 1)
	net.AddUniformLink(1, 3, 1)
	net.AddUniformLink(0, 2, 2)
	net.AddUniformLink(2, 3, 2)
	net.SetAllConverters(repro.NewFullConverter(2, 0.5))
	sol, ok := repro.ExactILP(net, 0, 3)
	fmt.Println(ok, sol.Cost)
	// Output: true 6
}

// Dynamic traffic simulation with failure injection.
func ExampleNewSim() {
	net := repro.NSFNET(repro.TopoConfig{W: 8})
	sim := repro.NewSim(net, repro.SimConfig{
		Algorithm:   repro.AlgoMinCost,
		Restoration: repro.RestoreActive,
		Seed:        1,
	})
	reqs := repro.Poisson(repro.PoissonConfig{
		Nodes: 14, ArrivalRate: 5, MeanHolding: 1, Count: 100, Seed: 2,
	})
	m := sim.Run(reqs)
	fmt.Println("offered:", m.Offered, "blocked:", m.Blocked)
	// Output: offered: 100 blocked: 0
}

// Static provisioning of a known demand set.
func ExampleProvision() {
	net := repro.NSFNET(repro.TopoConfig{W: 8})
	res := repro.Provision(net, []repro.Demand{
		{ID: 0, Src: 0, Dst: 13},
		{ID: 1, Src: 5, Dst: 9},
	}, repro.ProvisionConfig{
		Algorithm: repro.AlgoMinCost,
		Order:     repro.OrderLongestFirst,
	})
	fmt.Println("placed:", res.Placed)
	// Output: placed: 2
}
