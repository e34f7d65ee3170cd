// wdmroute routes a single connection request on a named topology and
// prints the resulting primary/backup semilightpaths with their wavelength
// assignments, cost breakdown, and load contribution:
//
//	wdmroute -topo nsfnet -w 8 -s 0 -t 13 -algo min-load-cost
//	wdmroute -topo waxman -n 30 -seed 7 -s 0 -t 29 -algo min-cost
//
// With -explain the request is routed through a traced router and the full
// explain report is rendered instead: per-hop w(e,λ), per-node conversion
// costs c_v(λp,λq), phase timings mapped to Theorem 1 terms, and the
// Theorem 2 factor-2 bound check. -json emits the same report as JSON.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/explain"
	"repro/internal/wdm"
)

func route(r *core.Router, algo string, net *wdm.Network, s, t int) (*core.Result, bool, error) {
	switch algo {
	case "min-cost":
		res, ok := r.ApproxMinCost(net, s, t)
		return res, ok, nil
	case "min-load":
		res, ok := r.MinLoad(net, s, t)
		return res, ok, nil
	case "min-load-cost":
		res, ok := r.MinLoadCost(net, s, t)
		return res, ok, nil
	case "two-step":
		res, ok := r.TwoStepMinCost(net, s, t)
		return res, ok, nil
	case "node-disjoint":
		res, ok := r.ApproxMinCostNodeDisjoint(net, s, t)
		return res, ok, nil
	}
	return nil, false, fmt.Errorf("unknown algorithm %q (min-cost, min-load, min-load-cost, two-step, node-disjoint)", algo)
}

func main() {
	topoName := flag.String("topo", "nsfnet", "topology: nsfnet, arpa2, ring, grid, waxman, complete")
	file := flag.String("file", "", "load topology from a JSON file instead of -topo")
	n := flag.Int("n", 16, "node count for parametric topologies")
	w := flag.Int("w", 8, "wavelengths per fiber")
	seed := flag.Int64("seed", 1, "seed for random topologies")
	s := flag.Int("s", 0, "source node")
	t := flag.Int("t", 13, "destination node")
	algo := flag.String("algo", "min-cost", "routing algorithm")
	explainFlag := flag.Bool("explain", false, "print the full route explanation (hops, conversions, phases, Theorem 2 bound)")
	jsonFlag := flag.Bool("json", false, "with -explain, emit the report as JSON")
	version := cli.VersionFlag()
	flag.Parse()
	cli.HandleVersion(*version)

	var net *wdm.Network
	var err error
	net, err = cli.LoadOrBuild(*file, *topoName, *n, *w, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *s < 0 || *s >= net.Nodes() || *t < 0 || *t >= net.Nodes() || *s == *t {
		fmt.Fprintf(os.Stderr, "invalid request %d→%d on %d-node topology\n", *s, *t, net.Nodes())
		os.Exit(1)
	}

	// A single request is cheap, so tracing is always on: the trace carries
	// the explain capture, rendered with -explain and discarded otherwise.
	tr := obs.New(obs.Config{Capacity: 1})
	router := core.NewRouter(nil)
	router.SetTracer(tr)
	r, ok, err := route(router, *algo, net, *s, *t)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if !ok {
		fmt.Printf("request %d→%d: no two edge-disjoint semilightpaths exist\n", *s, *t)
		os.Exit(2)
	}

	if *explainFlag {
		rep := explain.Of(tr.Flight().Find(router.LastTraceID()))
		if rep == nil {
			fmt.Fprintf(os.Stderr, "internal error: no explain report for request %d→%d\n", *s, *t)
			os.Exit(1)
		}
		if *jsonFlag {
			err = rep.WriteJSON(os.Stdout)
		} else {
			fmt.Printf("topology %s (n=%d, m=%d directed links, W=%d)\n",
				*topoName, net.Nodes(), net.Links(), net.W())
			err = rep.WriteText(os.Stdout)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("topology   %s (n=%d, m=%d directed links, W=%d)\n",
		*topoName, net.Nodes(), net.Links(), net.W())
	fmt.Printf("request    %d → %d via %s\n", *s, *t, *algo)
	fmt.Printf("primary    %s\n", r.Primary.Format(net))
	fmt.Printf("           link cost %.4g + conversion cost %.4g = %.4g\n",
		r.Primary.LinkCost(net), r.Primary.ConvCost(net), r.Primary.Cost(net))
	fmt.Printf("backup     %s\n", r.Backup.Format(net))
	fmt.Printf("           link cost %.4g + conversion cost %.4g = %.4g\n",
		r.Backup.LinkCost(net), r.Backup.ConvCost(net), r.Backup.Cost(net))
	fmt.Printf("pair cost  %.4g (aux-graph bound ω = %.4g)\n", r.Cost, r.AuxWeight)
	fmt.Printf("path load  %.4g", r.PathLoad)
	if r.Threshold > 0 {
		fmt.Printf("  (MinCog threshold ϑ = %.4g after %d rounds)", r.Threshold, r.Iterations)
	}
	fmt.Println()
}
