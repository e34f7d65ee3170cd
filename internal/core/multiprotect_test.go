package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/topo"
	"repro/internal/wdm"
)

// threeCorridors: 0→{1,2,3}→4 at costs 2, 4, 6.
func threeCorridors(w int) *wdm.Network {
	net := wdm.NewNetwork(5, w)
	net.AddUniformLink(0, 1, 1)
	net.AddUniformLink(1, 4, 1)
	net.AddUniformLink(0, 2, 2)
	net.AddUniformLink(2, 4, 2)
	net.AddUniformLink(0, 3, 3)
	net.AddUniformLink(3, 4, 3)
	net.SetAllConverters(wdm.NewFullConverter(w, 0.5))
	return net
}

func checkMulti(t *testing.T, net *wdm.Network, r *MultiResult, s, d, k int) {
	t.Helper()
	if len(r.Paths) != k {
		t.Fatalf("paths = %d, want %d", len(r.Paths), k)
	}
	seen := map[int]bool{}
	total := 0.0
	prev := 0.0
	for i, p := range r.Paths {
		if err := p.ValidateAvailable(net, s, d); err != nil {
			t.Fatalf("path %d invalid: %v", i, err)
		}
		for _, h := range p.Hops {
			if seen[h.Link] {
				t.Fatalf("link %d reused across paths", h.Link)
			}
			seen[h.Link] = true
		}
		c := p.Cost(net)
		if c < prev-1e-9 {
			t.Fatal("paths not in ascending cost order")
		}
		prev = c
		total += c
	}
	if math.Abs(total-r.Cost) > 1e-9 {
		t.Fatalf("Cost = %g, paths sum to %g", r.Cost, total)
	}
}

func TestApproxMinCostK3(t *testing.T) {
	net := threeCorridors(2)
	r, ok := ApproxMinCostK(net, 0, 4, 3)
	if !ok {
		t.Fatal("3-protection failed on three corridors")
	}
	checkMulti(t, net, r, 0, 4, 3)
	if math.Abs(r.Cost-12) > 1e-9 { // 2 + 4 + 6
		t.Fatalf("cost = %g, want 12", r.Cost)
	}
	// k = 4 impossible.
	if _, ok := ApproxMinCostK(net, 0, 4, 4); ok {
		t.Fatal("4 disjoint paths cannot exist")
	}
	// Degenerate k.
	if _, ok := ApproxMinCostK(net, 0, 4, 0); ok {
		t.Fatal("k = 0 accepted")
	}
}

func TestApproxMinCostK2MatchesPairRouter(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 25; trial++ {
		net := randomWDM(rng, 6+rng.Intn(4), 2, false)
		s, d := 0, net.Nodes()-1
		r2, ok2 := ApproxMinCostK(net, s, d, 2)
		rp, okp := NewRouter(nil).ApproxMinCost(net, s, d)
		if ok2 != okp {
			t.Fatalf("trial %d: k=2 ok=%v, pair ok=%v", trial, ok2, okp)
		}
		if !ok2 {
			continue
		}
		if math.Abs(r2.Cost-rp.Cost) > 1e-9 {
			t.Fatalf("trial %d: k=2 cost %g != pair cost %g", trial, r2.Cost, rp.Cost)
		}
	}
}

func TestSurvivesFailures(t *testing.T) {
	net := threeCorridors(2)
	r, _ := ApproxMinCostK(net, 0, 4, 3)
	// Kill the first links of two corridors: the third still survives.
	down := map[int]bool{r.Paths[0].Hops[0].Link: true, r.Paths[1].Hops[0].Link: true}
	if !r.SurvivesFailures(down) {
		t.Fatal("third path should survive two failures")
	}
	down[r.Paths[2].Hops[0].Link] = true
	if r.SurvivesFailures(down) {
		t.Fatal("all paths down yet reported surviving")
	}
	if !r.SurvivesFailures(map[int]bool{}) {
		t.Fatal("no failures should always survive")
	}
}

func TestKProtectionOnNSFNET(t *testing.T) {
	net := topo.NSFNET(topo.Config{W: 8})
	// NSFNET is 3-edge-connected between most pairs; verify a known pair.
	r, ok := ApproxMinCostK(net, 0, 13, 3)
	if !ok {
		t.Skip("NSFNET lacks 3 disjoint paths for this pair")
	}
	checkMulti(t, net, r, 0, 13, 3)
}
