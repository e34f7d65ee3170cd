package auxgraph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/disjoint"
	"repro/internal/graph"
	"repro/internal/wdm"
)

// fig1Net builds a small residual network in the spirit of the paper's
// Figure 1: 4 nodes, bidirectional fiber, 2 wavelengths.
func fig1Net() *wdm.Network {
	g := wdm.NewNetwork(4, 2)
	g.AddUniformPair(0, 1, 1)
	g.AddUniformPair(1, 2, 1)
	g.AddUniformPair(0, 3, 1)
	g.AddUniformPair(3, 2, 1)
	g.AddUniformPair(1, 3, 1)
	return g
}

// build returns the edge-disjoint auxiliary graph for (s, t) on a fresh
// skeleton, so results of separate calls never alias.
func build(net *wdm.Network, s, t int, p Params) *Aux {
	return NewSharedSkeleton(net).ReweightAt(s, t, p)
}

// buildND is build on a node-disjoint skeleton.
func buildND(net *wdm.Network, s, t int, p Params) *Aux {
	return NewNodeDisjointSkeleton(net).ReweightAt(s, t, p)
}

// enabledEdges counts the edges of g that are not disabled.
func enabledEdges(a *Aux) int {
	n := 0
	for id := 0; id < a.G.M(); id++ {
		if !a.G.Disabled(id) {
			n++
		}
	}
	return n
}

func TestBuildStructureMatchesPaper(t *testing.T) {
	net := fig1Net()
	a := build(net, 0, 2, Params{Kind: Cost})
	m := net.Links()
	// §3.3.1 / Theorem 1: G′ contains 2m edge-nodes plus s′ and t″. The
	// skeleton carries an s′_v/t″_v pair for every node; only the request's
	// pair has enabled edges.
	if got, want := a.G.N(), 2*m+2*net.Nodes(); got != want {
		t.Fatalf("aux vertices = %d, want %d", got, want)
	}
	for v := 2 * m; v < a.G.N(); v++ {
		if v != a.S && v != a.T && a.G.OutDegree(v)+a.G.InDegree(v) != 0 {
			t.Fatalf("inactive terminal vertex %d has enabled edges", v)
		}
	}
	// One link edge per kept link.
	linkEdges := 0
	for id := 0; id < a.G.M(); id++ {
		if a.G.Edge(id).Aux >= 0 {
			linkEdges++
		}
	}
	if linkEdges != m {
		t.Fatalf("link edges = %d, want %d", linkEdges, m)
	}
	// s′ fans out to |E_out(s)| kept links; t″ fans in from |E_in(t)|.
	if got, want := a.G.OutDegree(a.S), len(net.Out(0)); got != want {
		t.Fatalf("s' out-degree = %d, want %d", got, want)
	}
	if got, want := a.G.InDegree(a.T), len(net.In(2)); got != want {
		t.Fatalf("t'' in-degree = %d, want %d", got, want)
	}
	// Every conversion edge connects an in-node to an out-node of the same
	// physical node.
	for id := 0; id < a.G.M(); id++ {
		e := a.G.Edge(id)
		if e.Aux >= 0 || e.From >= 2*m || e.To >= 2*m {
			continue // link or terminal edge
		}
		var einLink, eoutLink int = -1, -1
		for l := 0; l < m; l++ {
			if a.InNode(l) == e.From {
				einLink = l
			}
			if a.OutNode(l) == e.To {
				eoutLink = l
			}
		}
		if einLink < 0 || eoutLink < 0 {
			t.Fatalf("conversion edge %d does not join in-node to out-node", id)
		}
		if net.Link(einLink).To != net.Link(eoutLink).From {
			t.Fatalf("conversion edge %d spans two different physical nodes", id)
		}
	}
}

func TestCostWeights(t *testing.T) {
	net := wdm.NewNetwork(3, 2)
	l0 := net.AddLink(0, 1, []wdm.Wavelength{0, 1}, []float64{2, 4})
	l1 := net.AddLink(1, 2, []wdm.Wavelength{0, 1}, []float64{1, 1})
	net.SetAllConverters(wdm.NewFullConverter(2, 3))
	a := build(net, 0, 2, Params{Kind: Cost})
	// Link edge weight = mean avail cost.
	for id := 0; id < a.G.M(); id++ {
		e := a.G.Edge(id)
		switch e.Aux {
		case l0:
			if e.Weight != 3 {
				t.Errorf("link edge of l0 weight = %g, want 3", e.Weight)
			}
		case l1:
			if e.Weight != 1 {
				t.Errorf("link edge of l1 weight = %g, want 1", e.Weight)
			}
		}
	}
	// Conversion edge at node 1: K = 4 ordered pairs (2 identity at 0, 2
	// conversions at 3) → mean 6/4 = 1.5.
	found := false
	for id := 0; id < a.G.M(); id++ {
		e := a.G.Edge(id)
		if e.Aux < 0 && e.From == a.InNode(l0) && e.To == a.OutNode(l1) {
			found = true
			if e.Weight != 1.5 {
				t.Errorf("conversion weight = %g, want 1.5", e.Weight)
			}
		}
	}
	if !found {
		t.Fatal("conversion edge l0→l1 missing")
	}
}

func TestConversionEdgeRequiresFeasiblePair(t *testing.T) {
	// Incoming link carries only λ0, outgoing only λ1, and node 1 cannot
	// convert: no conversion edge may exist.
	net := wdm.NewNetwork(3, 2)
	l0 := net.AddLink(0, 1, []wdm.Wavelength{0}, []float64{1})
	l1 := net.AddLink(1, 2, []wdm.Wavelength{1}, []float64{1})
	net.SetAllConverters(wdm.NoConverter{})
	a := build(net, 0, 2, Params{Kind: Cost})
	for id := 0; id < a.G.M(); id++ {
		e := a.G.Edge(id)
		if e.Aux < 0 && e.From == a.InNode(l0) && e.To == a.OutNode(l1) {
			t.Fatal("infeasible conversion edge present")
		}
	}
	if reaches(a) {
		t.Fatal("t'' should be unreachable under wavelength continuity")
	}
	// Identity conversion suffices when wavelengths overlap.
	net2 := wdm.NewNetwork(3, 2)
	net2.AddLink(0, 1, []wdm.Wavelength{0}, []float64{1})
	net2.AddLink(1, 2, []wdm.Wavelength{0}, []float64{1})
	net2.SetAllConverters(wdm.NoConverter{})
	a2 := build(net2, 0, 2, Params{Kind: Cost})
	if !reaches(a2) {
		t.Fatal("identity conversion should connect matching wavelengths")
	}
}

func TestLoadFilterAndWeights(t *testing.T) {
	net := wdm.NewNetwork(2, 4)
	id := net.AddUniformLink(0, 1, 1)
	net.Use(id, 0) // load 1/4
	// ϑ = 0.2 drops the link (load 0.25 ≥ 0.2).
	a := build(net, 0, 1, Params{Kind: Load, Threshold: 0.2})
	if a.OutNode(id) != -1 || a.InNode(id) != -1 {
		t.Fatal("overloaded link not filtered")
	}
	// ϑ = 0.3 keeps it; weight = a^{2/4} − a^{1/4}.
	a = build(net, 0, 1, Params{Kind: Load, Threshold: 0.3, Base: 10})
	var w float64 = -1
	for eid := 0; eid < a.G.M(); eid++ {
		if a.G.Edge(eid).Aux == id {
			w = a.G.Edge(eid).Weight
		}
	}
	want := math.Pow(10, 0.5) - math.Pow(10, 0.25)
	if math.Abs(w-want) > 1e-12 {
		t.Fatalf("load weight = %g, want %g", w, want)
	}
	// Conversion and terminal edges weigh 0 in G_c.
	for eid := 0; eid < a.G.M(); eid++ {
		e := a.G.Edge(eid)
		if e.Aux < 0 && e.Weight != 0 {
			t.Fatalf("non-link edge weight = %g, want 0", e.Weight)
		}
	}
}

func TestLoadCostWeights(t *testing.T) {
	net := wdm.NewNetwork(2, 4)
	id := net.AddUniformLink(0, 1, 2)
	net.Use(id, 0)
	a := build(net, 0, 1, Params{Kind: LoadCost, Threshold: 0.5})
	// G_rc link weight = Σ_{avail} w / N = 3·2/4 = 1.5.
	for eid := 0; eid < a.G.M(); eid++ {
		if a.G.Edge(eid).Aux == id {
			if got := a.G.Edge(eid).Weight; got != 1.5 {
				t.Fatalf("G_rc weight = %g, want 1.5", got)
			}
			return
		}
	}
	t.Fatal("link edge missing")
}

func TestExhaustedLinksFiltered(t *testing.T) {
	net := wdm.NewNetwork(2, 1)
	id := net.AddUniformLink(0, 1, 1)
	net.Use(id, 0)
	a := build(net, 0, 1, Params{Kind: Cost})
	if a.OutNode(id) != -1 {
		t.Fatal("exhausted link should be filtered from the residual graph")
	}
}

func TestBuildPanics(t *testing.T) {
	net := fig1Net()
	for name, fn := range map[string]func(){
		"badSrc":  func() { build(net, -1, 1, Params{}) },
		"badDst":  func() { build(net, 0, 99, Params{}) },
		"badBase": func() { build(net, 0, 1, Params{Kind: Load, Threshold: 1, Base: 0.5}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestMapPathRoundTrip(t *testing.T) {
	net := fig1Net()
	a := build(net, 0, 2, Params{Kind: Cost})
	var ws disjoint.Workspace
	pair, ok := ws.Suurballe(a.G, a.S, a.T)
	if !ok {
		t.Fatal("Figure-1 network must admit a disjoint pair")
	}
	links1 := a.MapPath(pair.Path1)
	links2 := a.MapPath(pair.Path2)
	// Each mapped sequence is a connected physical route from 0 to 2.
	for _, links := range [][]int{links1, links2} {
		if len(links) == 0 {
			t.Fatal("empty mapped path")
		}
		if net.Link(links[0]).From != 0 || net.Link(links[len(links)-1]).To != 2 {
			t.Fatalf("mapped path endpoints wrong: %v", links)
		}
		for i := 0; i+1 < len(links); i++ {
			if net.Link(links[i]).To != net.Link(links[i+1]).From {
				t.Fatalf("mapped path disconnected: %v", links)
			}
		}
	}
	// Edge-disjoint physically, and no route repeats a link.
	set1 := map[int]bool{}
	for _, l := range a.AppendMapPath(nil, pair.Path1) {
		set1[l] = true
	}
	for _, l := range links2 {
		if set1[l] {
			t.Fatalf("mapped paths share physical link %d", l)
		}
	}
	if len(set1) != len(links1) {
		t.Fatalf("mapped route %v repeats a physical link", links1)
	}
}

// reaches reports whether a.T is reachable from a.S over the enabled edges.
func reaches(a *Aux) bool {
	var ws graph.Workspace
	a.G.DijkstraInto(&ws, a.S)
	return ws.Reached(a.T)
}

// Property: on random residual networks, any Suurballe pair on G′ maps to
// two physically edge-disjoint connected routes.
func TestQuickAuxPairsPhysicallyDisjoint(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(4)
		net := wdm.NewNetwork(n, 2)
		for v := 0; v < n; v++ {
			net.AddUniformPair(v, (v+1)%n, 1+rng.Float64())
		}
		for i := 0; i < n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				net.AddUniformLink(u, v, 1+rng.Float64())
			}
		}
		s, d := 0, n-1
		a := build(net, s, d, Params{Kind: Cost})
		var ws disjoint.Workspace
		pair, ok := ws.Suurballe(a.G, a.S, a.T)
		if !ok {
			return true
		}
		l1, l2 := a.MapPath(pair.Path1), a.MapPath(pair.Path2)
		seen := map[int]bool{}
		for _, l := range l1 {
			seen[l] = true
		}
		for _, l := range l2 {
			if seen[l] {
				return false
			}
		}
		valid := func(links []int) bool {
			if len(links) == 0 || net.Link(links[0]).From != s || net.Link(links[len(links)-1]).To != d {
				return false
			}
			for i := 0; i+1 < len(links); i++ {
				if net.Link(links[i]).To != net.Link(links[i+1]).From {
					return false
				}
			}
			return true
		}
		return valid(l1) && valid(l2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: G_c is a subgraph of G′ (same skeleton, possibly fewer links) —
// the paper's observation that the load filter only removes edges.
func TestQuickLoadSubgraphOfCost(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4
		net := wdm.NewNetwork(n, 3)
		for v := 0; v < n; v++ {
			net.AddUniformPair(v, (v+1)%n, 1)
		}
		// Random partial usage.
		for id := 0; id < net.Links(); id++ {
			for lam := 0; lam < 3; lam++ {
				if rng.Float64() < 0.4 {
					net.Use(id, lam)
				}
			}
		}
		th := rng.Float64()
		ac := build(net, 0, n-1, Params{Kind: Cost})
		al := build(net, 0, n-1, Params{Kind: Load, Threshold: th})
		// Every link kept in G_c must be kept in G′.
		for id := 0; id < net.Links(); id++ {
			if al.OutNode(id) >= 0 && ac.OutNode(id) < 0 {
				return false
			}
		}
		return al.G.M() <= ac.G.M() && enabledEdges(al) <= enabledEdges(ac)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBuildCost(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	net := wdm.NewNetwork(100, 8)
	for v := 0; v < 100; v++ {
		net.AddUniformPair(v, (v+1)%100, 1)
		net.AddUniformPair(v, (v+7)%100, 1+rng.Float64())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		build(net, 0, 50, Params{Kind: Cost})
	}
}

// TestNetAccessor: an aux graph records the network it was built from — the
// net field every weight and route lookup reads through.
func TestNetAccessor(t *testing.T) {
	net := fig1Net()
	a := build(net, 0, 2, Params{Kind: Cost})
	if a.net != net {
		t.Fatal("aux graph does not record the network it was built from")
	}
}

// Property: the §4.1 exponential congestion weight a^{(U+1)/N} − a^{U/N} is
// strictly increasing and convex in U — the property that makes Suurballe's
// minimum-weight pair avoid loaded links superlinearly.
func TestQuickLoadWeightMonotoneConvex(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := 2 + rng.Intn(15)
		base := 1.5 + rng.Float64()*20
		weightAt := func(used int) float64 {
			net := wdm.NewNetwork(2, w)
			id := net.AddUniformLink(0, 1, 1)
			for lam := 0; lam < used; lam++ {
				net.Use(id, lam)
			}
			a := build(net, 0, 1, Params{Kind: Load, Threshold: 2, Base: base})
			for eid := 0; eid < a.G.M(); eid++ {
				if a.G.Edge(eid).Aux == id {
					return a.G.Edge(eid).Weight
				}
			}
			return math.NaN()
		}
		prev := -1.0
		prevDelta := -1.0
		for u := 0; u < w; u++ {
			wt := weightAt(u)
			if math.IsNaN(wt) || wt <= prev {
				return false // must increase strictly
			}
			if prevDelta > 0 && wt-prev < prevDelta-1e-12 {
				return false // increments must grow (convexity)
			}
			if prev >= 0 {
				prevDelta = wt - prev
			}
			prev = wt
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestNodeDisjointHubStructure(t *testing.T) {
	net := fig1Net()
	sk := NewNodeDisjointSkeleton(net)
	a := sk.ReweightAt(0, 2, Params{Kind: Cost})
	// The hub gadget adds 2 vertices per node; ReweightAt enables the hubs
	// of the intermediate nodes 1 and 3 only.
	plain := build(net, 0, 2, Params{Kind: Cost})
	if a.G.N() != plain.G.N()+2*net.Nodes() {
		t.Fatalf("aux vertices = %d, want %d", a.G.N(), plain.G.N()+2*net.Nodes())
	}
	for _, hb := range sk.hubs {
		if on := !a.G.Disabled(hb.hubEdge); on != (hb.node == 1 || hb.node == 3) {
			t.Fatalf("hub of node %d enabled = %v", hb.node, on)
		}
	}
	// The pair found is node-disjoint: map and check.
	var ws disjoint.Workspace
	pair, ok := ws.Suurballe(a.G, a.S, a.T)
	if !ok {
		t.Fatal("node-disjoint pair must exist on the fig-1 network")
	}
	seen := map[int]bool{}
	for _, id := range a.MapPath(pair.Path1) {
		l := net.Link(id)
		if l.To != 2 {
			seen[l.To] = true
		}
	}
	for _, id := range a.MapPath(pair.Path2) {
		l := net.Link(id)
		if l.To != 2 && seen[l.To] {
			t.Fatalf("paths share intermediate node %d", l.To)
		}
	}
}

func TestNodeDisjointWithLoadKind(t *testing.T) {
	net := fig1Net()
	net.Use(0, 0) // some load so the exponential weights differ
	var ws disjoint.Workspace
	a := buildND(net, 0, 2, Params{Kind: Load, Threshold: 1})
	if _, ok := ws.Suurballe(a.G, a.S, a.T); !ok {
		t.Fatal("load-kind node-disjoint pair must exist")
	}
	// LoadCost variant too.
	a = buildND(net, 0, 2, Params{Kind: LoadCost, Threshold: 1})
	if _, ok := ws.Suurballe(a.G, a.S, a.T); !ok {
		t.Fatal("loadcost-kind node-disjoint pair must exist")
	}
}

func TestNodeDisjointUntraversableNode(t *testing.T) {
	// Node 1 has no feasible conversion pair (λ0 in, λ1 out, no converter):
	// the hub edge must be absent and routing must fail through it.
	net := wdm.NewNetwork(3, 2)
	net.AddLink(0, 1, []wdm.Wavelength{0}, []float64{1})
	net.AddLink(1, 2, []wdm.Wavelength{1}, []float64{1})
	net.SetAllConverters(wdm.NoConverter{})
	sk := NewNodeDisjointSkeleton(net)
	a := sk.ReweightAt(0, 2, Params{Kind: Cost})
	if len(sk.hubs) != 0 {
		t.Fatalf("%d hub gadgets, want none", len(sk.hubs))
	}
	if reaches(a) {
		t.Fatal("untraversable hub should disconnect the aux graph")
	}
}
