package core

import (
	"math"
	"testing"

	"repro/internal/wdm"
)

// srlgNet builds three corridors 0→{1,2,3}→4. Corridors A and B share a
// conduit (SRLG 7); corridor C is independent.
func srlgNet() *wdm.Network {
	net := wdm.NewNetwork(5, 2)
	a1 := net.AddUniformLink(0, 1, 1)
	a2 := net.AddUniformLink(1, 4, 1)
	b1 := net.AddUniformLink(0, 2, 1.2)
	b2 := net.AddUniformLink(2, 4, 1.2)
	net.AddUniformLink(0, 3, 3)
	net.AddUniformLink(3, 4, 3)
	net.SetAllConverters(wdm.NewFullConverter(2, 0.5))
	net.SetSRLG(a1, 7)
	net.SetSRLG(b1, 7) // A and B share the duct out of node 0
	_ = a2
	_ = b2
	return net
}

func TestSRLGBackupAvoidsSharedConduit(t *testing.T) {
	net := srlgNet()
	r, ok := ApproxMinCostSRLG(net, 0, 4, 0)
	if !ok {
		t.Fatal("SRLG routing failed")
	}
	checkResult(t, net, r, 0, 4)
	// Primary is corridor A (cheapest); the backup must skip corridor B
	// (shared SRLG) and use corridor C despite its higher cost.
	if math.Abs(r.Cost-(2+6)) > 1e-9 {
		t.Fatalf("cost = %g, want 8 (A + C)", r.Cost)
	}
	for _, h := range r.Backup.Hops {
		for _, hp := range r.Primary.Hops {
			if net.SharesRisk(h.Link, hp.Link) {
				t.Fatal("backup shares a risk group with the primary")
			}
		}
	}
	// Plain edge-disjoint routing happily uses the shared-risk corridor.
	re, ok := NewRouter(nil).ApproxMinCost(net, 0, 4)
	if !ok {
		t.Fatal("plain routing failed")
	}
	if re.Cost >= r.Cost {
		t.Fatalf("ignoring SRLGs should be cheaper: %g vs %g", re.Cost, r.Cost)
	}
}

func TestSRLGKShortestRetry(t *testing.T) {
	// The cheapest primary has no SRLG-disjoint backup, but the second
	// cheapest does: corridor A conflicts with BOTH alternatives, while
	// corridor B only conflicts with A.
	net := wdm.NewNetwork(5, 2)
	a1 := net.AddUniformLink(0, 1, 1)
	net.AddUniformLink(1, 4, 1)
	b1 := net.AddUniformLink(0, 2, 1.5)
	net.AddUniformLink(2, 4, 1.5)
	c1 := net.AddUniformLink(0, 3, 2)
	net.AddUniformLink(3, 4, 2)
	net.SetAllConverters(wdm.NewFullConverter(2, 0.5))
	net.SetSRLG(a1, 1, 2) // A shares group 1 with B and group 2 with C
	net.SetSRLG(b1, 1)
	net.SetSRLG(c1, 2)
	r, ok := ApproxMinCostSRLG(net, 0, 4, 0)
	if !ok {
		t.Fatal("retry should find the B+C pair")
	}
	// B (3) + C (4) = 7.
	if math.Abs(r.Cost-7) > 1e-9 {
		t.Fatalf("cost = %g, want 7", r.Cost)
	}
	// With retries disabled (maxPrimaries=1) the heuristic fails: the
	// cheapest primary (A) conflicts with everything.
	if _, ok := ApproxMinCostSRLG(net, 0, 4, 1); ok {
		t.Fatal("single-primary heuristic should fail here")
	}
}

func TestSRLGNoGroupsBehavesLikeEdgeDisjoint(t *testing.T) {
	net := diamondNet(2)
	r, ok := ApproxMinCostSRLG(net, 0, 3, 0)
	if !ok {
		t.Fatal("routing failed")
	}
	checkResult(t, net, r, 0, 3)
	if math.Abs(r.Cost-6) > 1e-9 {
		t.Fatalf("cost = %g, want 6", r.Cost)
	}
}

func TestSRLGInfeasible(t *testing.T) {
	// Both corridors share a conduit: no SRLG-disjoint pair exists.
	net := wdm.NewNetwork(4, 2)
	a := net.AddUniformLink(0, 1, 1)
	net.AddUniformLink(1, 3, 1)
	b := net.AddUniformLink(0, 2, 1)
	net.AddUniformLink(2, 3, 1)
	net.SetAllConverters(wdm.NewFullConverter(2, 0.5))
	net.SetSRLG(a, 9)
	net.SetSRLG(b, 9)
	if _, ok := ApproxMinCostSRLG(net, 0, 3, 0); ok {
		t.Fatal("SRLG-conflicting pair accepted")
	}
	// Edge-disjoint routing still succeeds.
	if _, ok := NewRouter(nil).ApproxMinCost(net, 0, 3); !ok {
		t.Fatal("edge-disjoint routing should work")
	}
}

func TestSharesRiskAndClone(t *testing.T) {
	net := wdm.NewNetwork(2, 1)
	a := net.AddUniformLink(0, 1, 1)
	b := net.AddUniformLink(0, 1, 1)
	c := net.AddUniformLink(0, 1, 1)
	net.SetSRLG(a, 1, 2)
	net.SetSRLG(b, 2)
	if !net.SharesRisk(a, b) || net.SharesRisk(a, c) || net.SharesRisk(b, c) {
		t.Fatal("SharesRisk wrong")
	}
	if len(net.SRLGs(a)) != 2 || net.SRLGs(c) != nil {
		t.Fatal("SRLGs accessor wrong")
	}
	// Clone keeps the groups, independently.
	cl := net.Clone()
	if !cl.SharesRisk(a, b) {
		t.Fatal("clone lost SRLGs")
	}
	cl.SetSRLG(c, 2)
	if net.SharesRisk(b, c) {
		t.Fatal("clone not independent")
	}
}
