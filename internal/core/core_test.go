package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/check"
	"repro/internal/exact"
	"repro/internal/wdm"
)

// diamondNet: routes 0→1→3 (2), 0→2→3 (4), 0→3 (10).
func diamondNet(w int) *wdm.Network {
	g := wdm.NewNetwork(4, w)
	g.AddUniformLink(0, 1, 1)
	g.AddUniformLink(1, 3, 1)
	g.AddUniformLink(0, 2, 2)
	g.AddUniformLink(2, 3, 2)
	g.AddUniformLink(0, 3, 10)
	g.SetAllConverters(wdm.NewFullConverter(w, 0.5))
	return g
}

// trapNet: the Suurballe trap lifted to WDM (see disjoint tests).
func trapNet(w int) *wdm.Network {
	g := wdm.NewNetwork(6, w)
	g.AddUniformLink(0, 1, 1)
	g.AddUniformLink(1, 4, 1)
	g.AddUniformLink(4, 5, 1)
	g.AddUniformLink(1, 2, 2)
	g.AddUniformLink(2, 5, 2)
	g.AddUniformLink(0, 3, 2)
	g.AddUniformLink(3, 4, 2)
	g.SetAllConverters(wdm.NewFullConverter(w, 0.5))
	return g
}

func checkResult(t *testing.T, net *wdm.Network, r *Result, s, d int) {
	t.Helper()
	if err := r.Primary.ValidateAvailable(net, s, d); err != nil {
		t.Fatalf("primary invalid: %v", err)
	}
	if err := r.Backup.ValidateAvailable(net, s, d); err != nil {
		t.Fatalf("backup invalid: %v", err)
	}
	if !r.Primary.EdgeDisjoint(r.Backup) {
		t.Fatal("paths share a physical link")
	}
	got := r.Primary.Cost(net) + r.Backup.Cost(net)
	if math.Abs(got-r.Cost) > 1e-9 {
		t.Fatalf("Cost = %g, paths sum to %g", r.Cost, got)
	}
}

func TestApproxMinCostDiamond(t *testing.T) {
	net := diamondNet(2)
	r, ok := NewRouter(nil).ApproxMinCost(net, 0, 3)
	if !ok {
		t.Fatal("ApproxMinCost failed")
	}
	checkResult(t, net, r, 0, 3)
	if math.Abs(r.Cost-6) > 1e-9 {
		t.Fatalf("Cost = %g, want 6", r.Cost)
	}
	// Primary is the cheaper path.
	if r.Primary.Cost(net) > r.Backup.Cost(net) {
		t.Fatal("primary should be the cheaper path")
	}
	if r.AuxWeight <= 0 {
		t.Fatal("AuxWeight not recorded")
	}
}

func TestApproxMinCostSurvivesTrap(t *testing.T) {
	net := trapNet(1)
	r, ok := NewRouter(nil).ApproxMinCost(net, 0, 5)
	if !ok {
		t.Fatal("ApproxMinCost failed on trap")
	}
	checkResult(t, net, r, 0, 5)
	if math.Abs(r.Cost-10) > 1e-9 {
		t.Fatalf("Cost = %g, want 10", r.Cost)
	}
	// The naive baseline must fail here.
	if _, ok := NewRouter(nil).TwoStepMinCost(net, 0, 5); ok {
		t.Fatal("TwoStepMinCost should fail on the trap")
	}
}

func TestTwoStepMinCostEasy(t *testing.T) {
	net := diamondNet(1)
	r, ok := NewRouter(nil).TwoStepMinCost(net, 0, 3)
	if !ok {
		t.Fatal("TwoStepMinCost failed")
	}
	checkResult(t, net, r, 0, 3)
	if math.Abs(r.Cost-6) > 1e-9 {
		t.Fatalf("Cost = %g, want 6", r.Cost)
	}
}

func TestApproxMinCostNoPair(t *testing.T) {
	net := wdm.NewNetwork(3, 2)
	net.AddUniformLink(0, 1, 1)
	net.AddUniformLink(1, 2, 1)
	if _, ok := NewRouter(nil).ApproxMinCost(net, 0, 2); ok {
		t.Fatal("found a pair where only one route exists")
	}
	if _, ok := NewRouter(nil).MinLoad(net, 0, 2); ok {
		t.Fatal("MinLoad found a nonexistent pair")
	}
	if _, ok := NewRouter(nil).MinLoadCost(net, 0, 2); ok {
		t.Fatal("MinLoadCost found a nonexistent pair")
	}
}

func TestMinLoadPrefersIdleLinks(t *testing.T) {
	// Two disjoint 2-hop corridors 0→1→5 and 0→2→5 idle, plus a loaded
	// corridor 0→3→5 and a loaded direct link. MinLoad must pick the idle
	// corridors.
	net := wdm.NewNetwork(6, 4)
	a1 := net.AddUniformLink(0, 1, 1)
	a2 := net.AddUniformLink(1, 5, 1)
	b1 := net.AddUniformLink(0, 2, 1)
	b2 := net.AddUniformLink(2, 5, 1)
	c1 := net.AddUniformLink(0, 3, 1)
	c2 := net.AddUniformLink(3, 5, 1)
	d := net.AddUniformLink(0, 5, 1)
	// Load the c corridor and direct link heavily.
	for _, id := range []int{c1, c2, d} {
		net.Use(id, 0)
		net.Use(id, 1)
		net.Use(id, 2)
	}
	r, ok := NewRouter(nil).MinLoad(net, 0, 5)
	if !ok {
		t.Fatal("MinLoad failed")
	}
	checkResult(t, net, r, 0, 5)
	used := map[int]bool{}
	for _, h := range append(append([]wdm.Hop{}, r.Primary.Hops...), r.Backup.Hops...) {
		used[h.Link] = true
	}
	for _, id := range []int{a1, a2, b1, b2} {
		if !used[id] {
			t.Fatalf("idle link %d not used; used=%v", id, used)
		}
	}
	if used[c1] || used[c2] || used[d] {
		t.Fatal("loaded link chosen despite idle alternative")
	}
	if r.PathLoad != 0.25 {
		t.Fatalf("PathLoad = %g, want 0.25", r.PathLoad)
	}
	if r.Iterations < 1 || r.Threshold <= 0 {
		t.Fatalf("search diagnostics missing: %+v", r)
	}
}

func TestMinLoadMatchesOracleHere(t *testing.T) {
	net := wdm.NewNetwork(6, 4)
	ids := []int{
		net.AddUniformLink(0, 1, 1), net.AddUniformLink(1, 5, 1),
		net.AddUniformLink(0, 2, 1), net.AddUniformLink(2, 5, 1),
	}
	_ = ids
	net.AddUniformLink(0, 5, 1)
	oracle, ok := NewRouter(nil).OptimalLoadOracle(net, 0, 5)
	if !ok || oracle != 0.25 {
		t.Fatalf("oracle = %g ok=%v, want 0.25", oracle, ok)
	}
	r, ok := NewRouter(nil).MinLoad(net, 0, 5)
	if !ok {
		t.Fatal("MinLoad failed")
	}
	if r.PathLoad < oracle-1e-9 {
		t.Fatal("achieved load beat the oracle — oracle broken")
	}
}

func TestMinLoadCostBalancesBothObjectives(t *testing.T) {
	// Cheap corridor is loaded; expensive corridor idle. MinLoadCost should
	// route within the feasible load bound but pick cheap links inside it.
	net := wdm.NewNetwork(6, 4)
	// Idle: 0→1→5 cost 2, 0→2→5 cost 6.
	net.AddUniformLink(0, 1, 1)
	net.AddUniformLink(1, 5, 1)
	net.AddUniformLink(0, 2, 3)
	net.AddUniformLink(2, 5, 3)
	// Loaded but cheapest: direct 0→5 cost 0.5 with 3/4 wavelengths used.
	d := net.AddUniformLink(0, 5, 0.25)
	net.Use(d, 0)
	net.Use(d, 1)
	net.Use(d, 2)
	r, ok := NewRouter(nil).MinLoadCost(net, 0, 5)
	if !ok {
		t.Fatal("MinLoadCost failed")
	}
	checkResult(t, net, r, 0, 5)
	// The loaded direct link must be avoided (threshold excludes it).
	for _, p := range []*wdm.Semilightpath{r.Primary, r.Backup} {
		for _, h := range p.Hops {
			if h.Link == d {
				t.Fatal("loaded link used despite load-aware phase")
			}
		}
	}
	// Within the bound, the cheaper idle corridor must serve as primary.
	if math.Abs(r.Primary.Cost(net)-2) > 1e-9 {
		t.Fatalf("primary cost = %g, want 2", r.Primary.Cost(net))
	}
}

// TestNoRefineAblation checks the refinement ablation every Result carries:
// NaiveCost is what the first-fit assignment on the same mapped routes would
// pay, and Lemma 2 refinement must beat it where first-fit is a poor choice.
func TestNoRefineAblation(t *testing.T) {
	// Make first-fit strictly worse: λ0 expensive on the second link.
	net := wdm.NewNetwork(4, 2)
	net.AddLink(0, 1, []wdm.Wavelength{0, 1}, []float64{1, 1})
	net.AddLink(1, 3, []wdm.Wavelength{0, 1}, []float64{10, 1})
	net.AddUniformLink(0, 2, 2)
	net.AddUniformLink(2, 3, 2)
	net.SetAllConverters(wdm.NewFullConverter(2, 0))
	res, ok := NewRouter(nil).ApproxMinCost(net, 0, 3)
	if !ok {
		t.Fatal("routing failed")
	}
	// With zero conversion cost and first-fit λ0 on the 10-cost link, the
	// unrefined assignment pays 9 more on the 0→1→3 corridor.
	if !(res.NaiveCost > res.Cost) {
		t.Fatalf("NaiveCost %g, Cost %g; want first-fit strictly costlier", res.NaiveCost, res.Cost)
	}
	if math.Abs(res.NaiveCost-res.Cost-9) > 1e-9 {
		t.Fatalf("NaiveCost − Cost = %g, want 9", res.NaiveCost-res.Cost)
	}
}

func TestDegenerateRequests(t *testing.T) {
	net := diamondNet(1)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range request should panic via auxgraph")
		}
	}()
	NewRouter(nil).ApproxMinCost(net, -1, 3)
}

// randomWDM builds a connected random residual network under the paper's
// Theorem 2 assumptions: uniform per-link wavelength costs, full conversion
// with cost ≤ every incident link cost.
func randomWDM(rng *rand.Rand, n, w int, preload bool) *wdm.Network {
	g := wdm.NewNetwork(n, w)
	minCost := math.Inf(1)
	add := func(u, v int) {
		c := 1 + rng.Float64()*4
		if c < minCost {
			minCost = c
		}
		g.AddUniformLink(u, v, c)
	}
	for v := 0; v < n; v++ {
		add(v, (v+1)%n)
		add((v+1)%n, v)
	}
	for i := 0; i < n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			add(u, v)
		}
	}
	g.SetAllConverters(wdm.NewFullConverter(w, rng.Float64()*minCost))
	if preload {
		for id := 0; id < g.Links(); id++ {
			for lam := 0; lam < w; lam++ {
				if rng.Float64() < 0.3 {
					g.Use(id, lam)
				}
			}
		}
	}
	return g
}

// Property: Theorem 2 — ApproxMinCost is within 2× of the exact optimum
// under the stated assumptions; and the refined cost never exceeds the
// first-fit cost (Lemma 2 direction we can check exactly).
func TestQuickTheorem2Ratio(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(3)
		w := 1 + rng.Intn(2)
		net := randomWDM(rng, n, w, false)
		s, d := 0, n-1
		r, ok := NewRouter(nil).ApproxMinCost(net, s, d)
		sol, _, okE := exact.Exhaustive(net, s, d, 0)
		if ok != okE {
			return false // approx feasibility must match exact feasibility here
		}
		if !ok {
			return true
		}
		if r.Cost > r.NaiveCost+1e-9 {
			return false
		}
		return r.Cost <= 2*sol.Cost+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: all three routers return valid, edge-disjoint, available pairs
// on preloaded networks; MinLoad's achieved load never beats the oracle and
// its threshold ratio respects Theorem 3.
func TestQuickRoutersValidOnLoadedNetworks(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(4)
		w := 2 + rng.Intn(3)
		net := randomWDM(rng, n, w, true)
		s, d := 0, n-1
		oracle, okO := NewRouter(nil).OptimalLoadOracle(net, s, d)
		for _, route := range []func(*Router, *wdm.Network, int, int) (*Result, bool){
			(*Router).ApproxMinCost, (*Router).MinLoad, (*Router).MinLoadCost,
		} {
			r, ok := route(NewRouter(nil), net, s, d)
			if !ok {
				continue
			}
			if err := r.Primary.ValidateAvailable(net, s, d); err != nil {
				return false
			}
			if err := r.Backup.ValidateAvailable(net, s, d); err != nil {
				return false
			}
			if !r.Primary.EdgeDisjoint(r.Backup) {
				return false
			}
			if okO && r.PathLoad < oracle-1e-9 {
				return false // beating the oracle means the oracle is wrong
			}
		}
		// Theorem 3 spot check: when MinLoad succeeds, its threshold is
		// within 3× of the smallest feasible threshold.
		if r, ok := NewRouter(nil).MinLoad(net, s, d); ok && okO && oracle > 0 {
			if r.PathLoad > 3*oracle+1e-6 && r.PathLoad > oracle+0.5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkApproxMinCost(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	net := randomWDM(rng, 50, 8, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewRouter(nil).ApproxMinCost(net, i%50, (i+25)%50)
	}
}

func BenchmarkMinLoadCost(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	net := randomWDM(rng, 50, 8, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewRouter(nil).MinLoadCost(net, i%50, (i+25)%50)
	}
}

func TestNodeDisjointStricterThanEdgeDisjoint(t *testing.T) {
	// Bowtie: all routes 0→4 pass through node 2. Edge-disjoint pairs exist
	// (two parallel corridors through 2), node-disjoint pairs do not.
	net := wdm.NewNetwork(5, 2)
	net.AddUniformLink(0, 1, 1)
	net.AddUniformLink(1, 2, 1)
	net.AddUniformLink(0, 2, 1)
	net.AddUniformLink(2, 3, 1)
	net.AddUniformLink(3, 4, 1)
	net.AddUniformLink(2, 4, 1)
	net.SetAllConverters(wdm.NewFullConverter(2, 0.5))
	if _, ok := NewRouter(nil).ApproxMinCost(net, 0, 4); !ok {
		t.Fatal("edge-disjoint pair must exist through the bowtie")
	}
	if _, ok := NewRouter(nil).ApproxMinCostNodeDisjoint(net, 0, 4); ok {
		t.Fatal("node-disjoint pair cannot exist through the bowtie")
	}
}

func TestNodeDisjointOnDiamond(t *testing.T) {
	net := diamondNet(2)
	r, ok := NewRouter(nil).ApproxMinCostNodeDisjoint(net, 0, 3)
	if !ok {
		t.Fatal("diamond has node-disjoint pairs")
	}
	checkResult(t, net, r, 0, 3)
	if check.NodeDisjoint(net, r.Primary, r.Backup, 0, 3) != nil {
		t.Fatal("paths share an intermediate node")
	}
	// Optimal node-disjoint pair: 0→1→3 (2) + 0→2→3 (4) = 6.
	if math.Abs(r.Cost-6) > 1e-9 {
		t.Fatalf("cost = %g, want 6", r.Cost)
	}
}

// Property: node-disjoint pairs are always node-disjoint and never cheaper
// than the best edge-disjoint pair.
func TestQuickNodeDisjointDominance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(5)
		net := randomWDM(rng, n, 2, false)
		s, d := 0, n-1
		rn, okN := NewRouter(nil).ApproxMinCostNodeDisjoint(net, s, d)
		re, okE := NewRouter(nil).ApproxMinCost(net, s, d)
		if okN {
			if !okE {
				return false // node-disjoint implies edge-disjoint
			}
			if check.NodeDisjoint(net, rn.Primary, rn.Backup, s, d) != nil {
				return false
			}
			if err := rn.Primary.ValidateAvailable(net, s, d); err != nil {
				return false
			}
			if err := rn.Backup.ValidateAvailable(net, s, d); err != nil {
				return false
			}
		}
		_ = re
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestOptionsAccessors(t *testing.T) {
	o := &Options{Base: 7}
	net := diamondNet(2)
	// Exercise the explicit-options paths of the load routers.
	if _, ok := NewRouter(o).MinLoad(net, 0, 3); !ok {
		t.Fatal("MinLoad with explicit options failed")
	}
	if _, ok := NewRouter(o).MinLoadCost(net, 0, 3); !ok {
		t.Fatal("MinLoadCost with explicit options failed")
	}
}

func TestMinLoadCostOnUniformlyIdleNetwork(t *testing.T) {
	// Uniform loads hit the Δ≈0 fast path of the threshold search.
	net := diamondNet(4)
	r, ok := NewRouter(nil).MinLoadCost(net, 0, 3)
	if !ok {
		t.Fatal("MinLoadCost failed on idle network")
	}
	checkResult(t, net, r, 0, 3)
	if r.Iterations != 1 {
		t.Fatalf("iterations = %d, want 1 (uniform-load fast path)", r.Iterations)
	}
}
