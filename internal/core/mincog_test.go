package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/auxgraph"
	"repro/internal/disjoint"
	"repro/internal/topo"
	"repro/internal/wdm"
)

// refMinCogSearch is the MinCog search with Suurballe run in every round
// and the found pair kept, as the search ran before its rounds became
// feasibility tests. It is the reference the production search must match.
func refMinCogSearch(r *Router, net *wdm.Network, s, t int) (float64, *auxgraph.Aux, *disjoint.Pair, int, bool) {
	lo, hi, any := thetaBounds(net)
	if !any {
		return 0, nil, nil, 0, false
	}
	sk := r.skeleton(net, false, nil)
	try := func(theta float64) (*auxgraph.Aux, *disjoint.Pair, bool) {
		a := sk.ReweightAt(s, t, auxgraph.Params{Kind: auxgraph.Load, Threshold: theta, Base: r.opts.base()})
		pair, ok := r.ws.Suurballe(a.G, a.S, a.T)
		return a, pair, ok
	}
	delta := hi - lo
	if delta <= 1e-12 {
		a, pair, ok := try(hi)
		return hi, a, pair, 1, ok
	}
	j0 := int(math.Ceil(math.Log2(1 / delta)))
	if j0 < 0 {
		j0 = 0
	}
	inc := delta / math.Pow(2, float64(j0))
	theta, iters := lo, 0
	for iters < r.opts.maxIter() {
		iters++
		if theta >= hi {
			theta = hi
		}
		if a, pair, ok := try(theta); ok {
			return theta, a, pair, iters, true
		}
		if theta >= hi {
			return 0, nil, nil, iters, false
		}
		theta += inc
		inc *= 2
	}
	iters++
	a, pair, ok := try(hi)
	return hi, a, pair, iters, ok
}

// refRoute is MinLoad (loadCost false) or MinLoadCost (true) over
// refMinCogSearch: MinLoad refines the pair the search found, MinLoadCost
// reweights at the found ϑ as G_rc and routes minimum-cost there.
func refRoute(r *Router, loadCost bool, net *wdm.Network, s, t int) (*Result, bool) {
	theta, a, pair, iters, ok := refMinCogSearch(r, net, s, t)
	if !ok {
		return nil, false
	}
	if loadCost {
		sk := r.skeleton(net, false, nil)
		a = sk.ReweightAt(s, t, auxgraph.Params{Kind: auxgraph.LoadCost, Threshold: theta, Base: r.opts.base()})
		if pair, ok = r.ws.Suurballe(a.G, a.S, a.T); !ok {
			a = sk.ReweightAt(s, t, auxgraph.Params{Kind: auxgraph.LoadCost, Threshold: math.Inf(1)})
			if pair, ok = r.ws.Suurballe(a.G, a.S, a.T); !ok {
				return nil, false
			}
		}
	}
	res, ok := r.mapAndRefine(net, a, pair, nil)
	if !ok {
		return nil, false
	}
	res.Threshold, res.Iterations = theta, iters
	return res, true
}

// TestMinCogMatchesSuurballeEveryRound pins the feasibility-only search to
// the search that ran Suurballe in every round: over a churned NSFNET stream
// and over random preloaded networks, with the default and a tight
// iteration cap, MinLoad and MinLoadCost return bit-identical paths, cost,
// load, Threshold and Iterations, and block on the same requests.
func TestMinCogMatchesSuurballeEveryRound(t *testing.T) {
	var rounds, multi, blocked int
	compare := func(opts *Options, got, ref *Router, net *wdm.Network, s, d int, where string) *Result {
		var kept *Result
		for _, loadCost := range []bool{false, true} {
			var res *Result
			var ok bool
			if loadCost {
				res, ok = got.MinLoadCost(net, s, d)
			} else {
				res, ok = got.MinLoad(net, s, d)
			}
			want, okRef := refRoute(ref, loadCost, net, s, d)
			if kg, kr := keyOf(net, res, ok), keyOf(net, want, okRef); kg != kr {
				t.Fatalf("%s %d→%d (loadCost %v, opts %+v): got %+v, reference %+v", where, s, d, loadCost, opts, kg, kr)
			}
			rounds++
			switch {
			case !ok:
				blocked++
			case res.Iterations > 1:
				multi++
			}
			if ok && loadCost {
				kept = res
			}
		}
		return kept
	}
	for _, opts := range []*Options{nil, {MaxIterations: 2}} {
		// A churned stream: each admitted MinLoadCost pair is established,
		// and every few arrivals an earlier one is torn down.
		net := topo.NSFNET(topo.Config{W: 4})
		got, ref := NewRouter(opts), NewRouter(opts)
		rng := rand.New(rand.NewSource(17))
		var live []*Result
		for i := 0; i < 200; i++ {
			s := rng.Intn(net.Nodes())
			d := (s + 1 + rng.Intn(net.Nodes()-1)) % net.Nodes()
			if res := compare(opts, got, ref, net, s, d, "stream"); res != nil {
				if err := Establish(net, res); err != nil {
					t.Fatal(err)
				}
				live = append(live, res)
			}
			if len(live) > 6 && i%4 == 3 {
				j := rng.Intn(len(live))
				if err := Teardown(net, live[j]); err != nil {
					t.Fatal(err)
				}
				live = append(live[:j], live[j+1:]...)
			}
		}
		// Random preloaded networks, one fresh router pair each.
		for seed := int64(0); seed < 60; seed++ {
			rng := rand.New(rand.NewSource(seed))
			n := 5 + rng.Intn(4)
			net := randomWDM(rng, n, 2+rng.Intn(3), true)
			compare(opts, NewRouter(opts), NewRouter(opts), net, 0, n-1, "random")
		}
	}
	t.Logf("%d searches, %d with more than one round, %d blocked", rounds, multi, blocked)
	if multi < rounds/10 || blocked == 0 {
		t.Fatalf("degenerate sample: %d searches, %d with more than one round, %d blocked", rounds, multi, blocked)
	}
}

// TestFeasibleMatchesSuurballeOnSkeletons checks the exactness argument on
// the graphs the routers actually search: both skeleton kinds, reweighted as
// G′, G_c and G_rc at random thresholds over random network states, answer
// Feasible exactly when Suurballe finds a pair and when the s′→t″ edge
// connectivity is at least 2.
func TestFeasibleMatchesSuurballeOnSkeletons(t *testing.T) {
	var ws, sw disjoint.Workspace
	var yes, no int
	for seed := int64(0); seed < 80; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(5)
		net := randomWDM(rng, n, 1+rng.Intn(3), true)
		for _, sk := range []*auxgraph.Skeleton{auxgraph.NewSharedSkeleton(net), auxgraph.NewNodeDisjointSkeleton(net)} {
			for k := 0; k < 12; k++ {
				s := rng.Intn(n)
				d := (s + 1 + rng.Intn(n-1)) % n
				kind := auxgraph.Kind(rng.Intn(3))
				a := sk.ReweightAt(s, d, auxgraph.Params{Kind: kind, Threshold: rng.Float64() * 1.2})
				feasible := ws.Feasible(a.G, a.S, a.T)
				_, suurballe := sw.Suurballe(a.G, a.S, a.T)
				menger := a.G.EdgeConnectivity(a.S, a.T) >= 2
				if feasible != suurballe || feasible != menger {
					t.Fatalf("seed %d %d→%d kind %v: Feasible %v, Suurballe %v, EdgeConnectivity≥2 %v",
						seed, s, d, kind, feasible, suurballe, menger)
				}
				if feasible {
					yes++
				} else {
					no++
				}
			}
		}
	}
	t.Logf("%d feasible, %d infeasible", yes, no)
	if yes < 100 || no < 100 {
		t.Fatalf("degenerate sample: %d feasible, %d infeasible", yes, no)
	}
}
