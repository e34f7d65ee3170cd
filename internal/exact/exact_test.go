package exact

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/wdm"
)

// diamondNet: two node-disjoint routes 0→1→3 (cost 2) and 0→2→3 (cost 4),
// plus an expensive direct link 0→3 (cost 10). Optimal pair cost = 6.
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

func TestExhaustiveDiamond(t *testing.T) {
	g := diamondNet(2)
	sol, truncated, ok := Exhaustive(g, 0, 3, 0)
	if !ok || truncated {
		t.Fatalf("ok=%v truncated=%v", ok, truncated)
	}
	if math.Abs(sol.Cost-6) > 1e-9 {
		t.Fatalf("cost = %g, want 6", sol.Cost)
	}
	if err := sol.Primary.ValidateAvailable(g, 0, 3); err != nil {
		t.Fatal(err)
	}
	if err := sol.Backup.ValidateAvailable(g, 0, 3); err != nil {
		t.Fatal(err)
	}
	if !sol.Primary.EdgeDisjoint(sol.Backup) {
		t.Fatal("paths share a link")
	}
}

func TestILPDiamond(t *testing.T) {
	g := diamondNet(2)
	sol, stats, ok := ILP(g, 0, 3, ILPConfig{})
	if !ok {
		t.Fatal("ILP failed")
	}
	if math.Abs(sol.Cost-6) > 1e-6 {
		t.Fatalf("cost = %g, want 6", sol.Cost)
	}
	if stats.Vars == 0 || stats.Constraints == 0 || stats.Nodes == 0 {
		t.Fatalf("stats not populated: %+v", stats)
	}
	if err := sol.Primary.ValidateAvailable(g, 0, 3); err != nil {
		t.Fatal(err)
	}
	if err := sol.Backup.ValidateAvailable(g, 0, 3); err != nil {
		t.Fatal(err)
	}
	if !sol.Primary.EdgeDisjoint(sol.Backup) {
		t.Fatal("paths share a link")
	}
}

func TestNoDisjointPair(t *testing.T) {
	// Single line: only one route exists.
	g := wdm.NewNetwork(3, 2)
	g.AddUniformLink(0, 1, 1)
	g.AddUniformLink(1, 2, 1)
	if _, _, ok := Exhaustive(g, 0, 2, 0); ok {
		t.Fatal("Exhaustive found a nonexistent pair")
	}
	if _, _, ok := ILP(g, 0, 2, ILPConfig{}); ok {
		t.Fatal("ILP found a nonexistent pair")
	}
}

func TestDegenerateRequests(t *testing.T) {
	g := diamondNet(1)
	if _, _, ok := Exhaustive(g, 0, 0, 0); ok {
		t.Fatal("s == t accepted")
	}
	if _, _, ok := ILP(g, 2, 2, ILPConfig{}); ok {
		t.Fatal("s == t accepted by ILP")
	}
	if _, _, ok := Exhaustive(g, -1, 3, 0); ok {
		t.Fatal("bad source accepted")
	}
}

func TestWavelengthContentionForcesSplit(t *testing.T) {
	// Two parallel links 0→1 each with a single distinct wavelength; the
	// pair must use both. Conversion impossible (single-hop anyway).
	g := wdm.NewNetwork(2, 2)
	g.AddLink(0, 1, []wdm.Wavelength{0}, []float64{1})
	g.AddLink(0, 1, []wdm.Wavelength{1}, []float64{2})
	sol, _, ok := Exhaustive(g, 0, 1, 0)
	if !ok || math.Abs(sol.Cost-3) > 1e-9 {
		t.Fatalf("ok=%v cost=%v", ok, sol)
	}
	isol, _, iok := ILP(g, 0, 1, ILPConfig{})
	if !iok || math.Abs(isol.Cost-3) > 1e-6 {
		t.Fatalf("ILP ok=%v cost=%v", iok, isol)
	}
	if sol.Primary.Hops[0].Wavelength == sol.Backup.Hops[0].Wavelength {
		t.Fatal("paths must use distinct wavelengths on distinct links")
	}
}

func TestConversionCostCounted(t *testing.T) {
	// Primary route must convert: 0→1 has only λ0, 1→3 only λ1; conversion
	// at node 1 costs 5. Backup route 0→2→3 is uniform. The ILP objective
	// must include the 5.
	g := wdm.NewNetwork(4, 2)
	g.AddLink(0, 1, []wdm.Wavelength{0}, []float64{1})
	g.AddLink(1, 3, []wdm.Wavelength{1}, []float64{1})
	g.AddUniformLink(0, 2, 1)
	g.AddUniformLink(2, 3, 1)
	g.SetAllConverters(wdm.NewFullConverter(2, 5))
	want := 1.0 + 5 + 1 + 1 + 1 // route A with conversion + route B
	sol, _, ok := Exhaustive(g, 0, 3, 0)
	if !ok || math.Abs(sol.Cost-want) > 1e-9 {
		t.Fatalf("Exhaustive cost = %v, want %g", sol, want)
	}
	isol, _, iok := ILP(g, 0, 3, ILPConfig{})
	if !iok || math.Abs(isol.Cost-want) > 1e-6 {
		t.Fatalf("ILP cost = %v, want %g", isol, want)
	}
}

func TestDisallowedConversionBlocksRoute(t *testing.T) {
	// Same topology but no conversion: the mixed-wavelength route is
	// infeasible, so no disjoint pair exists.
	g := wdm.NewNetwork(4, 2)
	g.AddLink(0, 1, []wdm.Wavelength{0}, []float64{1})
	g.AddLink(1, 3, []wdm.Wavelength{1}, []float64{1})
	g.AddUniformLink(0, 2, 1)
	g.AddUniformLink(2, 3, 1)
	g.SetAllConverters(wdm.NoConverter{})
	if _, _, ok := Exhaustive(g, 0, 3, 0); ok {
		t.Fatal("Exhaustive found infeasible pair")
	}
	if _, _, ok := ILP(g, 0, 3, ILPConfig{}); ok {
		t.Fatal("ILP found infeasible pair")
	}
}

func TestExhaustiveTruncation(t *testing.T) {
	g := diamondNet(1)
	_, truncated, ok := Exhaustive(g, 0, 3, 1)
	if !truncated {
		t.Fatal("cap of 1 route should truncate")
	}
	_ = ok // with one route no pair can form; ok may be false
}

func TestRespectsAvailability(t *testing.T) {
	g := diamondNet(1) // W=1: taking a wavelength exhausts the link
	g.Use(0, 0)        // link 0→1 now unusable
	sol, _, ok := Exhaustive(g, 0, 3, 0)
	if !ok {
		t.Fatal("pair should still exist via 0→2→3 and 0→3")
	}
	if math.Abs(sol.Cost-14) > 1e-9 { // 4 + 10
		t.Fatalf("cost = %g, want 14", sol.Cost)
	}
	isol, _, iok := ILP(g, 0, 3, ILPConfig{})
	if !iok || math.Abs(isol.Cost-14) > 1e-6 {
		t.Fatalf("ILP cost = %v", isol)
	}
}

// randomSmallNet builds networks small enough for the ILP.
func randomSmallNet(rng *rand.Rand, n, w int) *wdm.Network {
	g := wdm.NewNetwork(n, w)
	for v := 0; v < n; v++ {
		g.AddUniformLink(v, (v+1)%n, 1+float64(rng.Intn(4)))
	}
	for i := 0; i < n/2; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.AddUniformLink(u, v, 1+float64(rng.Intn(4)))
		}
	}
	g.SetAllConverters(wdm.NewFullConverter(w, 0.5))
	return g
}

// The E9 agreement check in miniature: ILP and Exhaustive agree on random
// small instances.
func TestILPAgreesWithExhaustive(t *testing.T) {
	if testing.Short() {
		t.Skip("ILP cross-check is slow")
	}
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 10; trial++ {
		n := 4 + rng.Intn(2)
		g := randomSmallNet(rng, n, 2)
		s, d := 0, n-1
		esol, _, eok := Exhaustive(g, s, d, 0)
		isol, _, iok := ILP(g, s, d, ILPConfig{})
		if eok != iok {
			t.Fatalf("trial %d: exhaustive ok=%v, ilp ok=%v", trial, eok, iok)
		}
		if !eok {
			continue
		}
		if math.Abs(esol.Cost-isol.Cost) > 1e-5 {
			t.Fatalf("trial %d: exhaustive %g, ilp %g", trial, esol.Cost, isol.Cost)
		}
	}
}

func BenchmarkExhaustiveDiamond(b *testing.B) {
	g := diamondNet(2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Exhaustive(g, 0, 3, 0)
	}
}

func BenchmarkILPDiamond(b *testing.B) {
	g := diamondNet(2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ILP(g, 0, 3, ILPConfig{})
	}
}

// Regression: the paper's constraints as literally written admit two
// disjoint cycles (one through s, one through t) instead of two s→t paths.
// Craft an instance where that degenerate structure would be far cheaper
// than any real pair and verify the ILP matches the exhaustive optimum.
func TestILPRejectsCycleThroughSourceAndSink(t *testing.T) {
	g := wdm.NewNetwork(5, 1)
	// Cheap cycles at s=0 (via node 1) and t=4 (via node 3).
	g.AddUniformLink(0, 1, 0.1)
	g.AddUniformLink(1, 0, 0.1)
	g.AddUniformLink(4, 3, 0.1)
	g.AddUniformLink(3, 4, 0.1)
	// Two expensive genuine routes 0→4.
	g.AddUniformLink(0, 4, 50)
	g.AddUniformLink(0, 2, 30)
	g.AddUniformLink(2, 4, 30)
	g.SetAllConverters(wdm.NewFullConverter(1, 0))
	esol, _, okE := Exhaustive(g, 0, 4, 0)
	isol, _, okI := ILP(g, 0, 4, ILPConfig{})
	if !okE || !okI {
		t.Fatalf("okE=%v okI=%v", okE, okI)
	}
	want := 110.0 // 50 + 60
	if math.Abs(esol.Cost-want) > 1e-9 {
		t.Fatalf("exhaustive cost = %g, want %g", esol.Cost, want)
	}
	if math.Abs(isol.Cost-want) > 1e-6 {
		t.Fatalf("ILP cost = %g, want %g (cycle hole not closed)", isol.Cost, want)
	}
	// The extracted paths must be genuine s→t semilightpaths.
	if err := isol.Primary.Validate(g, 0, 4); err != nil {
		t.Fatal(err)
	}
	if err := isol.Backup.Validate(g, 0, 4); err != nil {
		t.Fatal(err)
	}
}

// The program builder's dimensions match the §3.1 formulation: two binary
// variables per available (link, wavelength) and two conversion variables
// per consecutive link pair.
func TestILPBuilderDimensions(t *testing.T) {
	g := diamondNet(2)
	prob, bins := newBuilder(g, 0, 3).build()
	availPairs := 0
	for id := 0; id < g.Links(); id++ {
		availPairs += g.Link(id).Avail().Count()
	}
	if len(bins) != 2*availPairs {
		t.Fatalf("binaries = %d, want %d", len(bins), 2*availPairs)
	}
	pairs := 0
	for e1 := 0; e1 < g.Links(); e1++ {
		for _, e2 := range g.Out(g.Link(e1).To) {
			if e2 != e1 {
				pairs++
			}
		}
	}
	if prob.NumVars() != 2*availPairs+2*pairs {
		t.Fatalf("vars = %d, want %d", prob.NumVars(), 2*availPairs+2*pairs)
	}
}
