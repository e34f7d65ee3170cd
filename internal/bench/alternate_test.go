package bench

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/conns"
	"repro/internal/core"
	"repro/internal/wdm"
)

// altDiamond: routes 0→1→3 (2), 0→2→3 (4), 0→3 (10), full conversion.
func altDiamond(w int) *wdm.Network {
	g := wdm.NewNetwork(4, w)
	g.AddUniformLink(0, 1, 1)
	g.AddUniformLink(1, 3, 1)
	g.AddUniformLink(0, 2, 2)
	g.AddUniformLink(2, 3, 2)
	g.AddUniformLink(0, 3, 10)
	g.SetAllConverters(wdm.NewFullConverter(w, 0.5))
	return g
}

// altRandomNet builds a connected random network (a bidirectional ring plus
// random chords) with full conversion and about 30% of its channels already
// reserved.
func altRandomNet(rng *rand.Rand, n, w int) *wdm.Network {
	g := wdm.NewNetwork(n, w)
	minCost := math.Inf(1)
	add := func(u, v int) {
		c := 1 + rng.Float64()*4
		minCost = math.Min(minCost, c)
		g.AddUniformLink(u, v, c)
	}
	for v := 0; v < n; v++ {
		add(v, (v+1)%n)
		add((v+1)%n, v)
	}
	for i := 0; i < n; i++ {
		if u, v := rng.Intn(n), rng.Intn(n); u != v {
			add(u, v)
		}
	}
	g.SetAllConverters(wdm.NewFullConverter(w, rng.Float64()*minCost))
	for id := 0; id < g.Links(); id++ {
		for lam := 0; lam < w; lam++ {
			if rng.Float64() < 0.3 {
				g.Use(id, lam)
			}
		}
	}
	return g
}

// checkAltResult asserts a table route is a valid, available, edge-disjoint
// pair whose Cost is the Eq. 1 sum of its two paths.
func checkAltResult(t *testing.T, net *wdm.Network, r *core.Result, s, d int) {
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
	if got := r.Primary.Cost(net) + r.Backup.Cost(net); math.Abs(got-r.Cost) > 1e-9 {
		t.Fatalf("Cost = %g, paths sum to %g", r.Cost, got)
	}
}

func TestAlternateTableServesRequests(t *testing.T) {
	net := altDiamond(2)
	tbl := BuildAlternateTable(net, 2)
	if len(tbl.routes[0*tbl.n+3]) < 1 {
		t.Fatal("no alternates for (0,3)")
	}
	if len(tbl.routes[0*tbl.n+0]) != 0 {
		t.Fatal("s == t should have no alternates")
	}
	r, ok := tbl.Route(net, 0, 3)
	if !ok {
		t.Fatal("table route failed on idle network")
	}
	checkAltResult(t, net, r, 0, 3)
	// First alternate is the idle-network optimum pair (cost 6).
	if math.Abs(r.Cost-6) > 1e-9 {
		t.Fatalf("cost = %g, want 6", r.Cost)
	}
	if _, ok := tbl.Route(net, 0, 0); ok {
		t.Fatal("s == t accepted")
	}
	if _, ok := tbl.Route(net, -1, 3); ok {
		t.Fatal("out-of-range source accepted")
	}
}

func TestAlternateTableFallsBackWhenBusy(t *testing.T) {
	// W=1 diamond: the best pair uses links {0,1} and {2,3}; once reserved,
	// the only remaining alternate must use link 4 (0→3 direct) — but a
	// single link cannot form a pair, so with k=2 the second alternate
	// cannot exist and the request blocks. Verify ordered fallback on a
	// richer network instead: two fully disjoint pair-sets.
	net := wdm.NewNetwork(6, 1)
	// Pair set 1: 0→1→5 and 0→2→5.
	net.AddUniformLink(0, 1, 1)
	net.AddUniformLink(1, 5, 1)
	net.AddUniformLink(0, 2, 1)
	net.AddUniformLink(2, 5, 1)
	// Pair set 2 (more expensive): 0→3→5 and 0→4→5.
	net.AddUniformLink(0, 3, 2)
	net.AddUniformLink(3, 5, 2)
	net.AddUniformLink(0, 4, 2)
	net.AddUniformLink(4, 5, 2)
	net.SetAllConverters(wdm.NewFullConverter(1, 0))
	tbl := BuildAlternateTable(net, 2)
	tab := conns.New[struct{}](net)
	if got := len(tbl.routes[0*tbl.n+5]); got != 2 {
		t.Fatalf("alternates = %d, want 2", got)
	}
	r1, ok := tbl.Route(net, 0, 5)
	if !ok || math.Abs(r1.Cost-4) > 1e-9 {
		t.Fatalf("first route cost = %v ok=%v", r1, ok)
	}
	if _, err := tab.Admit(1, 0, 5, r1.Pair()); err != nil {
		t.Fatal(err)
	}
	// First alternate exhausted (W=1): second must be chosen.
	r2, ok := tbl.Route(net, 0, 5)
	if !ok {
		t.Fatal("fallback alternate not used")
	}
	if math.Abs(r2.Cost-8) > 1e-9 {
		t.Fatalf("fallback cost = %g, want 8", r2.Cost)
	}
	if _, err := tab.Admit(2, 0, 5, r2.Pair()); err != nil {
		t.Fatal(err)
	}
	// Everything exhausted now.
	if _, ok := tbl.Route(net, 0, 5); ok {
		t.Fatal("exhausted table still routed")
	}
}

func TestAlternateTableNeverBeatsAdaptive(t *testing.T) {
	// Adaptive routing recomputes on the residual network, so whenever the
	// table finds a pair the adaptive router must find one too.
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 20; trial++ {
		net := altRandomNet(rng, 6+rng.Intn(3), 2)
		tbl := BuildAlternateTable(net, 2)
		s, d := 0, net.Nodes()-1
		_, okT := tbl.Route(net, s, d)
		_, okA := core.NewRouter(nil).ApproxMinCost(net, s, d)
		if okT && !okA {
			t.Fatalf("trial %d: table routed where adaptive failed", trial)
		}
	}
}
