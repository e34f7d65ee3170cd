package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/auxgraph"
	"repro/internal/check"
	"repro/internal/conns"
	"repro/internal/disjoint"
	"repro/internal/topo"
	"repro/internal/wdm"
)

// thetaBounds returns ϑ_min = min_e (U(e)+1)/N(e) and ϑ_max = max_e … over
// links that still have available wavelengths.
func thetaBounds(net *wdm.Network) (lo, hi float64, any bool) {
	lo, hi = math.Inf(1), 0
	for id := 0; id < net.Links(); id++ {
		l := net.Link(id)
		if l.Avail().Empty() || l.N() == 0 {
			continue
		}
		any = true
		r := float64(l.U()+1) / float64(l.N())
		if r < lo {
			lo = r
		}
		if r > hi {
			hi = r
		}
	}
	return lo, hi, any
}

// refMinCogSearch is the MinCog search with Suurballe run in every round
// and the found pair kept, as the search ran before its rounds became
// feasibility tests, with at most maxIter doubling rounds. It is the
// reference the production search must match.
func refMinCogSearch(r *Router, net *wdm.Network, s, t, maxIter int) (float64, *auxgraph.Aux, *disjoint.Pair, int, bool) {
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
	for iters < maxIter {
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
	theta, a, pair, iters, ok := refMinCogSearch(r, net, s, t, minCogMaxIter)
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
// and over random preloaded networks, MinLoad and MinLoadCost return
// bit-identical paths, cost, load, Threshold and Iterations, and block on
// the same requests. Tighter iteration caps are the schedule tests' (see
// TestMinCogScheduleMatchesRounds).
func TestMinCogMatchesSuurballeEveryRound(t *testing.T) {
	var rounds, multi, blocked int
	compare := func(got, ref *Router, net *wdm.Network, s, d int, where string) *Result {
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
				t.Fatalf("%s %d→%d (loadCost %v): got %+v, reference %+v", where, s, d, loadCost, kg, kr)
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
	// A churned stream: each admitted MinLoadCost pair is established,
	// and every few arrivals an earlier one is torn down.
	net := topo.NSFNET(topo.Config{W: 4})
	tab := conns.New[struct{}](net)
	got, ref := NewRouter(nil), NewRouter(nil)
	rng := rand.New(rand.NewSource(17))
	var live []int64
	for i := 0; i < 200; i++ {
		s := rng.Intn(net.Nodes())
		d := (s + 1 + rng.Intn(net.Nodes()-1)) % net.Nodes()
		if res := compare(got, ref, net, s, d, "stream"); res != nil {
			if _, err := tab.Admit(int64(i), s, d, res.Pair()); err != nil {
				t.Fatal(err)
			}
			live = append(live, int64(i))
		}
		if len(live) > 6 && i%4 == 3 {
			j := rng.Intn(len(live))
			if _, err := tab.Teardown(live[j]); err != nil {
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
		compare(NewRouter(nil), NewRouter(nil), net, 0, n-1, "random")
	}
	t.Logf("%d searches, %d with more than one round, %d blocked", rounds, multi, blocked)
	if multi < rounds/10 || blocked == 0 {
		t.Fatalf("degenerate sample: %d searches, %d with more than one round, %d blocked", rounds, multi, blocked)
	}
}

// TestFeasibleMatchesSuurballeOnSkeletons checks the exactness argument on
// the graphs the routers actually search: both skeleton kinds, reweighted as
// G′, G_c and G_rc at random thresholds over random network states, answer
// feasible (StartFlow reaches 2) exactly when Suurballe finds a pair and
// when the s′→t″ edge connectivity is at least 2.
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
				feasible := ws.StartFlow(a.G, a.S, a.T) == 2
				_, suurballe := sw.Suurballe(a.G, a.S, a.T)
				menger := a.G.EdgeConnectivity(a.S, a.T) >= 2
				if feasible != suurballe || feasible != menger {
					t.Fatalf("seed %d %d→%d kind %v: StartFlow=2 %v, Suurballe %v, EdgeConnectivity≥2 %v",
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

// scheduleStats counts what a schedule comparison covered.
type scheduleStats struct{ searches, multi, capped, blocked int }

// bottleneckSearch is got's MinCog search under an iteration cap of maxIter:
// the router's own search at the production cap, and the same bottleneck
// pass replayed through mincogSchedule at any other cap.
func bottleneckSearch(got *Router, net *wdm.Network, s, d, maxIter int) (theta float64, iters int, ok bool) {
	if maxIter == minCogMaxIter {
		theta, _, iters, ok = got.minCogSearch(net, s, d, nil)
		return theta, iters, ok
	}
	lo, hi, any := got.linkKeys(net, false)
	if !any {
		return 0, 0, false
	}
	lstar, _ := got.bottleneck(got.skeleton(net, false, nil), s, d)
	return mincogSchedule(lo, hi, lstar, maxIter)
}

// compareSchedule checks that the bottleneck search of got, capped at
// maxIter rounds, returns the ϑ, round count and success refMinCogSearch
// finds by deciding every round with Suurballe on a fresh router.
func compareSchedule(t testing.TB, st *scheduleStats, maxIter int, got *Router, net *wdm.Network, s, d int, where string) {
	t.Helper()
	theta, iters, ok := bottleneckSearch(got, net, s, d, maxIter)
	refTheta, _, _, refIters, refOK := refMinCogSearch(NewRouter(nil), net, s, d, maxIter)
	if theta != refTheta || iters != refIters || ok != refOK {
		t.Fatalf("%s %d→%d (cap %d): bottleneck search (ϑ %v, %d rounds, ok %v), round by round (ϑ %v, %d rounds, ok %v)",
			where, s, d, maxIter, theta, iters, ok, refTheta, refIters, refOK)
	}
	st.searches++
	switch {
	case !ok:
		st.blocked++
	case iters > maxIter:
		st.capped++
	case iters > 1:
		st.multi++
	}
}

// scheduleNets returns the networks TestMinCogScheduleMatchesRounds searches:
// random preloaded snapshots, uniform loads (idle and one channel used on
// every link), links with different N, a pendant node whose pairs are all
// infeasible, a network with no free channel at all, and a loaded NSFNET
// with links taken down by conns.Table.Fail.
func scheduleNets(t *testing.T) map[string]*wdm.Network {
	nets := map[string]*wdm.Network{}
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nets["random-"+string(rune('a'+seed))] = randomWDM(rng, 5+rng.Intn(4), 2+rng.Intn(3), true)
	}
	nets["idle"] = topo.NSFNET(topo.Config{W: 4})
	ring := topo.NSFNET(topo.Config{W: 4})
	for id := 0; id < ring.Links(); id++ {
		ring.Use(id, 0)
	}
	nets["uniform"] = ring

	rng := rand.New(rand.NewSource(3))
	mixed := wdm.NewNetwork(7, 6)
	add := func(u, v int) {
		n := 1 + rng.Intn(6)
		lams, costs := make([]wdm.Wavelength, n), make([]float64, n)
		for i := range lams {
			lams[i], costs[i] = i, 1+rng.Float64()
		}
		id := mixed.AddLink(u, v, lams, costs)
		for lam := 0; lam < n; lam++ {
			if rng.Float64() < 0.35 {
				mixed.Use(id, lam)
			}
		}
	}
	for v := 0; v < 6; v++ {
		add(v, (v+1)%6)
		add((v+1)%6, v)
		add(v, (v+3)%6)
	}
	add(6, 0) // node 6 hangs off node 0 by one link each way
	add(0, 6)
	mixed.SetAllConverters(wdm.NewFullConverter(6, 0.5))
	nets["mixed-N"] = mixed

	full := topo.NSFNET(topo.Config{W: 2})
	for id := 0; id < full.Links(); id++ {
		full.Use(id, 0)
		full.Use(id, 1)
	}
	nets["saturated"] = full

	down := topo.NSFNET(topo.Config{W: 4})
	tab := conns.New[struct{}](down)
	r := NewRouter(nil)
	for id := int64(0); id < 20; id++ {
		s := rng.Intn(down.Nodes())
		d := (s + 1 + rng.Intn(down.Nodes()-1)) % down.Nodes()
		if res, ok := r.MinLoadCost(down, s, d); ok {
			if _, err := tab.Admit(id, s, d, res.Pair()); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, link := range []int{0, 7, 19} {
		tab.Fail(link)
	}
	nets["failed-links"] = down
	return nets
}

// TestMinCogScheduleMatchesRounds pins the schedule replay: for every pair
// of every network of scheduleNets, under the default iteration cap and
// caps of 1 and 2, the bottleneck search returns the ϑ, round count and
// blocking decision of the round-by-round search. One warm router per cap
// serves every network, so the key order it keeps between passes is
// exercised across networks of different sizes.
func TestMinCogScheduleMatchesRounds(t *testing.T) {
	nets := scheduleNets(t)
	names := make([]string, 0, len(nets))
	for name := range nets {
		names = append(names, name)
	}
	sort.Strings(names)
	var st scheduleStats
	for _, maxIter := range []int{minCogMaxIter, 1, 2} {
		got := NewRouter(nil)
		for _, name := range names {
			net := nets[name]
			for s := 0; s < net.Nodes(); s++ {
				for d := 0; d < net.Nodes(); d++ {
					if s != d {
						compareSchedule(t, &st, maxIter, got, net, s, d, name)
					}
				}
			}
		}
	}
	t.Logf("%+v", st)
	if st.multi == 0 || st.capped == 0 || st.blocked == 0 {
		t.Fatalf("degenerate sample: %+v", st)
	}
}

// FuzzMinCogSchedule drives the schedule comparison over check.Generate
// instances: each instance's request stream is replayed with MinLoadCost
// (establishing what it admits, tearing down as the stream says), and
// before every request the bottleneck search must match the round-by-round
// search, under an iteration cap the fuzzer picks (0 is the production
// cap).
func FuzzMinCogSchedule(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(0))
	f.Add(int64(42), uint8(4), uint8(1))
	f.Add(int64(-7), uint8(9), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, size, maxIter uint8) {
		in := check.GenerateSeeded(seed, 4+int(size%5))
		net, err := in.Build()
		if err != nil {
			t.Fatal(err)
		}
		limit := int(maxIter % 4)
		if limit == 0 {
			limit = minCogMaxIter
		}
		tab := conns.New[struct{}](net)
		got, route := NewRouter(nil), NewRouter(nil)
		var st scheduleStats
		for i, op := range in.Ops {
			if op.Teardown >= 0 {
				// A blocked request has nothing to tear down.
				if _, err := tab.Teardown(int64(op.Teardown)); err != nil && err != conns.ErrUnknown {
					t.Fatal(err)
				}
				continue
			}
			compareSchedule(t, &st, limit, got, net, op.Src, op.Dst, "op")
			if res, ok := route.MinLoadCost(net, op.Src, op.Dst); ok {
				if _, err := tab.Admit(int64(i), op.Src, op.Dst, res.Pair()); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
}

// TestAdmissionPassMatchesGc checks the exactness the bottleneck pass rests
// on, on both graphs a pass runs on: letting in, in random groups, the links
// with an available wavelength and load below a random ϑ, the incremental
// search reaches flow 2 exactly when G_c at ϑ admits a Suurballe pair and
// has s′→t″ edge connectivity at least 2. Networks with full conversion
// everywhere run the pass on the physical graph; the rest, with some nodes
// converting nothing, on the aux graph.
func TestAdmissionPassMatchesGc(t *testing.T) {
	var ws, sw disjoint.Workspace
	counts := map[[2]bool]int{} // [physical, feasible]
	for seed := int64(0); seed < 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(5)
		net := randomWDM(rng, n, 1+rng.Intn(3), true)
		phys := seed%2 == 0
		if !phys {
			for v := 0; v < n; v++ {
				if rng.Intn(2) == 0 {
					net.SetConverter(v, wdm.NoConverter{})
				}
			}
			net.SetConverter(rng.Intn(n), wdm.NoConverter{})
		}
		sk, fresh := auxgraph.NewSharedSkeleton(net), auxgraph.NewSharedSkeleton(net)
		for k := 0; k < 10; k++ {
			s := rng.Intn(n)
			d := (s + 1 + rng.Intn(n-1)) % n
			theta := rng.Float64() * 1.1
			var links []int
			for _, id := range rng.Perm(net.Links()) {
				if l := net.Link(id); !l.Avail().Empty() && l.Load() < theta {
					links = append(links, id)
				}
			}
			g, src, dst := sk.BeginAdmit(s, d)
			flow := ws.StartFlow(g, src, dst)
			for len(links) > 0 {
				j := 1 + rng.Intn(len(links))
				flow = ws.ExtendFlow(sk.Admit(links[:j]))
				links = links[j:]
			}
			a := fresh.ReweightAt(s, d, auxgraph.Params{Kind: auxgraph.Load, Threshold: theta})
			_, suurballe := sw.Suurballe(a.G, a.S, a.T)
			menger := a.G.EdgeConnectivity(a.S, a.T) >= 2
			if (g.N() == net.Nodes()) != phys {
				t.Fatalf("seed %d: pass graph has %d vertices on %d nodes, physical %v", seed, g.N(), net.Nodes(), phys)
			}
			if (flow == 2) != suurballe || suurballe != menger {
				t.Fatalf("seed %d %d→%d ϑ=%g (physical graph %v): pass flow %d, G_c Suurballe %v, connectivity≥2 %v",
					seed, s, d, theta, phys, flow, suurballe, menger)
			}
			counts[[2]bool{phys, suurballe}]++
		}
	}
	t.Logf("[physical feasible] counts: %v", counts)
	for _, key := range [][2]bool{{true, true}, {true, false}, {false, true}, {false, false}} {
		if counts[key] < 50 {
			t.Fatalf("degenerate sample: %v", counts)
		}
	}
}
