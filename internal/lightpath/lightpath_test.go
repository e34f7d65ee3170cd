package lightpath

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/check"
	"repro/internal/wdm"
)

func TestOptimalLine(t *testing.T) {
	g := wdm.NewNetwork(3, 2)
	g.AddUniformLink(0, 1, 2)
	g.AddUniformLink(1, 2, 3)
	g.SetAllConverters(wdm.NewFullConverter(2, 1))
	p, cost, ok := Optimal(g, 0, 2, nil)
	if !ok {
		t.Fatal("no path found")
	}
	if cost != 5 {
		t.Fatalf("cost = %g, want 5 (no conversion needed)", cost)
	}
	if err := p.ValidateAvailable(g, 0, 2); err != nil {
		t.Fatal(err)
	}
	if p.Hops[0].Wavelength != p.Hops[1].Wavelength {
		t.Fatal("optimal path should avoid conversion cost by keeping wavelength")
	}
	if math.Abs(p.Cost(g)-cost) > 1e-12 {
		t.Fatalf("reported cost %g != path cost %g", cost, p.Cost(g))
	}
}

func TestOptimalPrefersConversionWhenCheaper(t *testing.T) {
	// λ0 expensive on second link; conversion cost is tiny, so the optimum
	// converts λ0 → λ1 at node 1.
	g := wdm.NewNetwork(3, 2)
	g.AddLink(0, 1, []wdm.Wavelength{0}, []float64{1})
	g.AddLink(1, 2, []wdm.Wavelength{0, 1}, []float64{10, 1})
	g.SetAllConverters(wdm.NewFullConverter(2, 0.5))
	p, cost, ok := Optimal(g, 0, 2, nil)
	if !ok {
		t.Fatal("no path")
	}
	if math.Abs(cost-2.5) > 1e-12 { // 1 + 0.5 + 1
		t.Fatalf("cost = %g, want 2.5", cost)
	}
	if p.Hops[1].Wavelength != 1 {
		t.Fatal("should convert to λ1")
	}
}

func TestOptimalAvoidsConversionWhenExpensive(t *testing.T) {
	g := wdm.NewNetwork(3, 2)
	g.AddLink(0, 1, []wdm.Wavelength{0}, []float64{1})
	g.AddLink(1, 2, []wdm.Wavelength{0, 1}, []float64{3, 1})
	g.SetAllConverters(wdm.NewFullConverter(2, 100))
	_, cost, ok := Optimal(g, 0, 2, nil)
	if !ok {
		t.Fatal("no path")
	}
	if cost != 4 { // stick to λ0: 1 + 3
		t.Fatalf("cost = %g, want 4", cost)
	}
}

func TestOptimalWavelengthContinuity(t *testing.T) {
	// With NoConverter everywhere a path exists only if one wavelength spans
	// all links.
	g := wdm.NewNetwork(3, 2)
	g.AddLink(0, 1, []wdm.Wavelength{0}, []float64{1})
	g.AddLink(1, 2, []wdm.Wavelength{1}, []float64{1})
	g.SetAllConverters(wdm.NoConverter{})
	if _, _, ok := Optimal(g, 0, 2, nil); ok {
		t.Fatal("continuity-violating path found")
	}
	// Add a λ0 link 1→2 and it becomes feasible.
	g.AddLink(1, 2, []wdm.Wavelength{0}, []float64{5})
	p, cost, ok := Optimal(g, 0, 2, nil)
	if !ok || cost != 6 {
		t.Fatalf("cost = %g ok=%v, want 6 true", cost, ok)
	}
	for _, h := range p.Hops {
		if h.Wavelength != 0 {
			t.Fatal("path must stay on λ0")
		}
	}
}

func TestOptimalRespectsAvailability(t *testing.T) {
	g := wdm.NewNetwork(2, 2)
	id := g.AddUniformLink(0, 1, 1)
	g.Use(id, 0)
	p, _, ok := Optimal(g, 0, 1, nil)
	if !ok {
		t.Fatal("λ1 should still be available")
	}
	if p.Hops[0].Wavelength != 1 {
		t.Fatal("must avoid in-use λ0")
	}
	g.Use(id, 1)
	if _, _, ok := Optimal(g, 0, 1, nil); ok {
		t.Fatal("exhausted link should be unroutable")
	}
}

func TestOptimalAllowedLinksRestriction(t *testing.T) {
	g := wdm.NewNetwork(3, 1)
	cheap := g.AddUniformLink(0, 2, 1)
	g.AddUniformLink(0, 1, 1)
	g.AddUniformLink(1, 2, 1)
	// Restricted away from the direct cheap link.
	p, cost, ok := Optimal(g, 0, 2, &Options{AllowedLinks: func(id int) bool { return id != cheap }})
	if !ok || cost != 2 || p.Len() != 2 {
		t.Fatalf("restricted path cost = %g len=%d ok=%v", cost, p.Len(), ok)
	}
	// Restricted to the direct link alone.
	p2, _, ok2 := Optimal(g, 0, 2, &Options{AllowedLinks: func(id int) bool { return id == cheap }})
	if !ok2 || p2.Len() != 1 {
		t.Fatal("subgraph search failed")
	}
}

func TestOptimalDegenerateQueries(t *testing.T) {
	g := wdm.NewNetwork(3, 1)
	g.AddUniformLink(0, 1, 1)
	if _, _, ok := Optimal(g, 0, 0, nil); ok {
		t.Fatal("s == t should report no path")
	}
	if _, _, ok := Optimal(g, 0, 2, nil); ok {
		t.Fatal("unreachable destination should report no path")
	}
	if _, _, ok := Optimal(g, -1, 1, nil); ok {
		t.Fatal("out-of-range source should report no path")
	}
}

// The defining semilightpath subtlety: a node may be revisited to reach a
// converter. Node 1 cannot convert, but a detour 1→3→1 through a converting
// node makes the connection feasible.
func TestOptimalNodeRevisitThroughConverter(t *testing.T) {
	g := wdm.NewNetwork(4, 2)
	g.AddLink(0, 1, []wdm.Wavelength{0}, []float64{1}) // only λ0 into 1
	g.AddLink(1, 2, []wdm.Wavelength{1}, []float64{1}) // only λ1 out to 2
	g.AddUniformLink(1, 3, 1)                          // detour to converter
	g.AddUniformLink(3, 1, 1)
	g.SetAllConverters(wdm.NoConverter{})
	g.SetConverter(3, wdm.NewFullConverter(2, 0.25))
	p, cost, ok := Optimal(g, 0, 2, nil)
	if !ok {
		t.Fatal("detour walk should exist")
	}
	if err := p.Validate(g, 0, 2); err != nil {
		t.Fatal(err)
	}
	if p.Len() != 4 {
		t.Fatalf("walk length = %d, want 4", p.Len())
	}
	if math.Abs(cost-4.25) > 1e-12 { // 1 + 1 + 0.25 conv + 1 + 1
		t.Fatalf("cost = %g, want 4.25", cost)
	}
}

func TestAssignWavelengthsMatchesOptimalOnFixedRoute(t *testing.T) {
	g := wdm.NewNetwork(4, 3)
	ids := []int{
		g.AddLink(0, 1, []wdm.Wavelength{0, 1}, []float64{5, 1}),
		g.AddLink(1, 2, []wdm.Wavelength{0, 2}, []float64{1, 4}),
		g.AddLink(2, 3, []wdm.Wavelength{2}, []float64{2}),
	}
	g.SetAllConverters(wdm.NewFullConverter(3, 1))
	p, cost, ok := AssignWavelengths(g, ids)
	if !ok {
		t.Fatal("no assignment")
	}
	if err := p.ValidateAvailable(g, 0, 3); err != nil {
		t.Fatal(err)
	}
	// Best: λ1 (1) + conv (1) + λ0 (1) + conv (1) + λ2 (2) = 6.
	if math.Abs(cost-6) > 1e-12 {
		t.Fatalf("cost = %g, want 6", cost)
	}
	// The only route in this network is the line, so Optimal must agree.
	_, oc, ook := Optimal(g, 0, 3, nil)
	if !ook || math.Abs(oc-cost) > 1e-12 {
		t.Fatalf("Optimal cost %g != assignment cost %g", oc, cost)
	}
}

func TestAssignWavelengthsFailureModes(t *testing.T) {
	g := wdm.NewNetwork(3, 2)
	a := g.AddLink(0, 1, []wdm.Wavelength{0}, []float64{1})
	b := g.AddLink(1, 2, []wdm.Wavelength{1}, []float64{1})
	g.SetAllConverters(wdm.NoConverter{})
	if _, _, ok := AssignWavelengths(g, []int{a, b}); ok {
		t.Fatal("continuity violation should fail")
	}
	if _, _, ok := AssignWavelengths(g, nil); ok {
		t.Fatal("empty route should fail")
	}
	if _, _, ok := AssignWavelengths(g, []int{b, a}); ok {
		t.Fatal("disconnected route should fail")
	}
	// Exhausted wavelength.
	g.SetAllConverters(wdm.NewFullConverter(2, 0))
	g.Use(a, 0)
	if _, _, ok := AssignWavelengths(g, []int{a, b}); ok {
		t.Fatal("in-use wavelength should fail")
	}
}

// randomNet builds a random strongly-ish connected network with full
// conversion and random per-wavelength costs.
func randomNet(rng *rand.Rand, n, w int) *wdm.Network {
	g := wdm.NewNetwork(n, w)
	// Ring to guarantee connectivity, plus chords.
	for v := 0; v < n; v++ {
		g.AddUniformLink(v, (v+1)%n, 1+rng.Float64()*4)
	}
	for i := 0; i < n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		lams := []wdm.Wavelength{}
		costs := []float64{}
		for lam := 0; lam < w; lam++ {
			if rng.Float64() < 0.7 {
				lams = append(lams, lam)
				costs = append(costs, 1+rng.Float64()*4)
			}
		}
		if len(lams) > 0 {
			g.AddLink(u, v, lams, costs)
		}
	}
	g.SetAllConverters(wdm.NewFullConverter(w, rng.Float64()))
	return g
}

// Brute force: enumerate all simple physical routes via DFS and optimally
// assign wavelengths per route. Under full conversion, node revisits are
// never beneficial, so this equals the true optimum.
func bruteForceOptimal(g *wdm.Network, s, t int) float64 {
	best := math.Inf(1)
	onPath := make([]bool, g.Nodes())
	var route []int
	var dfs func(u int)
	dfs = func(u int) {
		if u == t {
			if _, c, ok := AssignWavelengths(g, route); ok && c < best {
				best = c
			}
			return
		}
		onPath[u] = true
		for _, id := range g.Out(u) {
			v := g.Link(id).To
			if onPath[v] || v == s {
				continue
			}
			route = append(route, id)
			dfs(v)
			route = route[:len(route)-1]
		}
		onPath[u] = false
	}
	dfs(s)
	return best
}

// Property: layered Dijkstra matches exhaustive enumeration under full
// conversion on small random networks.
func TestQuickOptimalMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(3)
		w := 1 + rng.Intn(3)
		g := randomNet(rng, n, w)
		s, d := 0, n-1
		_, cost, ok := Optimal(g, s, d, nil)
		want := bruteForceOptimal(g, s, d)
		if !ok {
			return math.IsInf(want, 1)
		}
		return math.Abs(cost-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: the returned semilightpath is always valid and its Eq.1 cost
// equals the reported cost.
func TestQuickOptimalSelfConsistent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(6)
		w := 1 + rng.Intn(4)
		g := randomNet(rng, n, w)
		s, d := rng.Intn(n), rng.Intn(n)
		p, cost, ok := Optimal(g, s, d, nil)
		if !ok {
			return true
		}
		// The oracle re-derives path legality, availability, and the Eq. 1
		// cost from first principles, independent of the Semilightpath
		// accessors the router itself uses.
		if err := check.PathAvailable(g, p, s, d); err != nil {
			return false
		}
		return check.Cost(g, p, cost) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkOptimal(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := randomNet(rng, 100, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Optimal(g, i%100, (i+50)%100, nil)
	}
}
