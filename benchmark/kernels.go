package main

import (
	"bytes"
	"encoding/json"
	"runtime"
	"time"

	"repro/internal/auxgraph"
	"repro/internal/core"
	"repro/internal/disjoint"
	"repro/internal/graph"
	"repro/internal/lightpath"
	"repro/internal/serve"
	"repro/internal/wdm"
)

type nodePair struct{ s, d int }

func allPairs(nodes int) []nodePair {
	var ps []nodePair
	for s := 0; s < nodes; s++ {
		for d := 0; d < nodes; d++ {
			if s != d {
				ps = append(ps, nodePair{s, d})
			}
		}
	}
	return ps
}

// timeLoop sweeps fn over items until budget of time has been spent inside
// fn, and returns the mean nanoseconds and heap allocations per call. prep,
// when non-nil, runs untimed before each call (its allocations count).
func timeLoop[T any](budget time.Duration, items []T, prep, fn func(T)) (ns, allocs float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var spent time.Duration
	calls := 0
	for spent < budget {
		if prep == nil {
			t0 := time.Now()
			for _, it := range items {
				fn(it)
			}
			spent += time.Since(t0)
			calls += len(items)
			continue
		}
		for _, p := range items {
			prep(p)
			t0 := time.Now()
			fn(p)
			spent += time.Since(t0)
			calls++
		}
	}
	runtime.ReadMemStats(&after)
	return float64(spent.Nanoseconds()) / float64(calls), float64(after.Mallocs-before.Mallocs) / float64(calls)
}

// timeKernels times the L0 kernels and the L1 router tiers on a captured
// network state over every ordered node pair, each for at least budget.
// The state is only read.
func timeKernels(net *wdm.Network, budget time.Duration) map[string]float64 {
	pairs := allPairs(net.Nodes())
	out := map[string]float64{}

	sk := auxgraph.NewSharedSkeleton(net)
	cost := auxgraph.Params{Kind: auxgraph.Cost}
	var aux *auxgraph.Aux
	reweight := func(p nodePair) { aux = sk.ReweightAt(p.s, p.d, cost) }
	out["auxgraph.reweight_at_ns"], out["auxgraph.reweight_at_allocs"] = timeLoop(budget, pairs, nil, reweight)

	var gws graph.Workspace
	out["graph.dijkstra_ns"], out["graph.dijkstra_allocs"] = timeLoop(budget, pairs, reweight,
		func(nodePair) { aux.G.DijkstraInto(&gws, aux.S) })

	var dws disjoint.Workspace
	out["disjoint.suurballe_ns"], out["disjoint.suurballe_allocs"] = timeLoop(budget, pairs, reweight,
		func(nodePair) { dws.Suurballe(aux.G, aux.S, aux.T) })

	// Fixed routes for wavelength assignment: both paths of each pair's
	// cheapest disjoint pair on this state.
	var routes [][]int
	for _, p := range pairs {
		reweight(p)
		if pr, ok := dws.Suurballe(aux.G, aux.S, aux.T); ok {
			routes = append(routes, aux.AppendMapPath(nil, pr.Path1), aux.AppendMapPath(nil, pr.Path2))
		}
	}
	if len(routes) > 0 {
		var aws lightpath.AssignWorkspace
		var hops []wdm.Hop
		out["lightpath.assign_into_ns"], out["lightpath.assign_into_allocs"] = timeLoop(budget, routes, nil,
			func(route []int) { hops, _, _ = lightpath.AssignInto(&aws, net, route, hops[:0]) })
	}

	bodies := make([][]byte, len(pairs))
	for i, p := range pairs {
		bodies[i], _ = json.Marshal(serve.Request{ID: int64(i), Src: p.s, Dst: p.d}) // plain struct: cannot fail
	}
	out["serve.decode_request_ns"], _ = timeLoop(budget, bodies, nil, func(body []byte) {
		_, _ = serve.DecodeRequest(bytes.NewReader(body)) // well-formed by construction
	})

	tab := core.NewCandidateTable(net, simCandidates)
	cand := core.NewRouter(&core.Options{CandidateTable: tab, ReuseResult: true})
	hits := 0
	for _, p := range pairs {
		cand.ApproxMinCost(net, p.s, p.d)
		if cand.LastTier() == core.TierCandidate {
			hits++
		}
	}
	out["core.candidate_hit_ratio"] = float64(hits) / float64(len(pairs))
	ns, _ := timeLoop(budget, pairs, nil, func(p nodePair) { cand.ApproxMinCost(net, p.s, p.d) })
	out["core.route_candidate_us"] = ns / 1e3

	exact := core.NewRouter(&core.Options{ReuseResult: true})
	for _, p := range pairs { // warm the skeleton cache, as a long-lived router is
		exact.ApproxMinCost(net, p.s, p.d)
	}
	ns, _ = timeLoop(budget, pairs, nil, func(p nodePair) { exact.ApproxMinCost(net, p.s, p.d) })
	out["core.route_exact_us"] = ns / 1e3
	ns, _ = timeLoop(budget, pairs, nil, func(p nodePair) { exact.MinLoadCost(net, p.s, p.d) })
	out["core.route_mincog_us"] = ns / 1e3
	return out
}
