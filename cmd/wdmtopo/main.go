// wdmtopo inspects and exports topologies: summary statistics, Graphviz DOT
// rendering, and the JSON interchange format understood by wdmroute/wdmsim:
//
//	wdmtopo -topo nsfnet -w 8                  # print statistics
//	wdmtopo -topo arpa2 -format dot            # Graphviz
//	wdmtopo -topo waxman -n 24 -format json    # save/edit/reload
//	wdmtopo -file mynet.json                   # stats for a saved topology
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/auxgraph"
	"repro/internal/cli"
	"repro/internal/disjoint"
	"repro/internal/graph"
	"repro/internal/stats"
	"repro/internal/topofile"
	"repro/internal/wdm"
)

func main() {
	topoName := flag.String("topo", "nsfnet", "topology: nsfnet, arpa2, ring, grid, waxman, complete")
	file := flag.String("file", "", "load topology from a JSON file instead")
	n := flag.Int("n", 16, "node count for parametric topologies")
	w := flag.Int("w", 8, "wavelengths per fiber")
	seed := flag.Int64("seed", 1, "seed for random topologies")
	format := flag.String("format", "stats", "output: stats, dot, json")
	version := cli.VersionFlag()
	flag.Parse()
	cli.HandleVersion(*version)

	net, err := cli.LoadOrBuild(*file, *topoName, *n, *w, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	switch *format {
	case "stats":
		printStats(net)
	case "dot":
		printDOT(net)
	case "json":
		f := topofile.Describe(net, topofile.ConverterSpec{Kind: "full", Cost: 0.5})
		if err := f.Encode(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown format %q\n", *format)
		os.Exit(1)
	}
}

func printStats(net *wdm.Network) {
	fmt.Printf("nodes            %d\n", net.Nodes())
	fmt.Printf("directed links   %d\n", net.Links())
	fmt.Printf("wavelengths      %d\n", net.W())
	fmt.Printf("max degree d     %d\n", net.MaxDegree())
	var cost stats.Stream
	for id := 0; id < net.Links(); id++ {
		cost.Add(net.Link(id).MeanAvailCost())
	}
	fmt.Printf("link cost        %s\n", cost.String())
	// Robust-routability: fraction of ordered pairs with an edge-disjoint
	// pair (should be 100% for a survivable backbone).
	sk := auxgraph.NewSharedSkeleton(net)
	var ws disjoint.Workspace
	total, routable := 0, 0
	for s := 0; s < net.Nodes(); s++ {
		for d := 0; d < net.Nodes(); d++ {
			if s == d {
				continue
			}
			total++
			a := sk.ReweightAt(s, d, auxgraph.Params{Kind: auxgraph.Cost})
			if _, ok := ws.Suurballe(a.G, a.S, a.T); ok {
				routable++
			}
		}
	}
	fmt.Printf("robust pairs     %d/%d (%.1f%%)\n", routable, total,
		100*float64(routable)/float64(total))
	// Auxiliary graph size for a representative request (§3.3.1 inventory):
	// the 2m edge-nodes plus s′ and t″, and the edges enabled for the pair.
	a := sk.ReweightAt(0, net.Nodes()-1, auxgraph.Params{Kind: auxgraph.Cost})
	edges := 0
	for id := 0; id < a.G.M(); id++ {
		if !a.G.Disabled(id) {
			edges++
		}
	}
	fmt.Printf("aux graph        %d vertices, %d edges (for request 0→%d)\n",
		2*net.Links()+2, edges, net.Nodes()-1)
	// Survivability at conduit granularity: bridge spans cannot be
	// protected by any edge-disjoint backup.
	g := graph.New(net.Nodes())
	for id := 0; id < net.Links(); id++ {
		l := net.Link(id)
		g.AddEdge(l.From, l.To, 1)
	}
	if bridges := g.Bridges(); len(bridges) > 0 {
		fmt.Printf("bridge links     %d (unprotectable at conduit granularity)\n", len(bridges))
	} else {
		fmt.Printf("bridge links     none (2-edge-connected)\n")
	}
	// Protection capacity: max k of pairwise edge-disjoint paths per pair
	// (Menger), i.e. the highest protection level any router can offer.
	var conn stats.Stream
	minConn := -1
	for s := 0; s < net.Nodes(); s++ {
		for d := 0; d < net.Nodes(); d++ {
			if s == d {
				continue
			}
			c := g.EdgeConnectivity(s, d)
			conn.Add(float64(c))
			if minConn < 0 || c < minConn {
				minConn = c
			}
		}
	}
	fmt.Printf("pair conn.       min %d, mean %.2f (max protection level k)\n", minConn, conn.Mean())
}

func printDOT(net *wdm.Network) {
	fmt.Println("digraph wdm {")
	fmt.Println("  rankdir=LR; node [shape=circle];")
	for id := 0; id < net.Links(); id++ {
		l := net.Link(id)
		fmt.Printf("  %d -> %d [label=\"e%d w=%.3g λ=%d\"];\n",
			l.From, l.To, id, l.MeanAvailCost(), l.N())
	}
	fmt.Println("}")
}
