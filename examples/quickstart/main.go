// Quickstart: build a small WDM network, route one robust connection
// (primary + edge-disjoint backup), reserve it, and inspect the result.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	// A 6-node metro network, 4 wavelengths per fiber. AddUniformLink gives
	// every wavelength the same traversal cost (the paper's assumption (ii));
	// wavelength conversion costs 0.5 everywhere (assumption (i)).
	net := repro.NewNetwork(6, 4)
	net.SetAllConverters(repro.NewFullConverter(4, 0.5))
	spans := [][3]float64{
		{0, 1, 1}, {1, 2, 1}, {2, 5, 1}, // north corridor
		{0, 3, 2}, {3, 4, 2}, {4, 5, 2}, // south corridor
		{1, 4, 1.5}, {2, 4, 1}, // cross links
	}
	for _, s := range spans {
		net.AddUniformLink(int(s[0]), int(s[1]), s[2])
		net.AddUniformLink(int(s[1]), int(s[0]), s[2])
	}

	// Connections reserve and release channels through a connection table,
	// which owns the network from now on; routing still reads net.
	tab := repro.NewConnectionTable(net)

	// Route a robust connection 0 → 5: two edge-disjoint semilightpaths
	// minimising the total cost (§3.3 of the paper). A Router reuses its
	// internal graph structures across requests; for a single request,
	// repro.ApproxMinCost(net, 0, 5, nil) is equivalent.
	router := repro.NewRouter(nil)
	route, ok := router.ApproxMinCost(net, 0, 5)
	if !ok {
		log.Fatal("no two edge-disjoint semilightpaths exist")
	}
	fmt.Println("primary: ", route.Primary.Format(net))
	fmt.Println("backup:  ", route.Backup.Format(net))
	fmt.Printf("pair cost %.3g (aux-graph bound ω = %.3g)\n", route.Cost, route.AuxWeight)

	// Reserve both paths. The backup's wavelengths are locked now, so a
	// single link failure on the primary can be survived by switching over
	// instantly — the paper's "activate" approach.
	if _, err := tab.Admit(1, 0, 5, route.Pair()); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("network load after establishment: ρ = %.3g\n", net.NetworkLoad())

	// A second request now sees the residual network and routes around the
	// reserved capacity.
	route2, ok := router.MinLoadCost(net, 3, 2)
	if !ok {
		log.Fatal("second request blocked")
	}
	fmt.Println("second request primary:", route2.Primary.Format(net))
	fmt.Printf("network load with both connections: ρ = %.3g\n", func() float64 {
		if _, err := tab.Admit(2, 3, 2, route2.Pair()); err != nil {
			log.Fatal(err)
		}
		return net.NetworkLoad()
	}())

	// Connections release their wavelengths on teardown.
	for _, id := range []int64{1, 2} {
		if _, err := tab.Teardown(id); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("network load after teardown: ρ = %.3g\n", net.NetworkLoad())
}
