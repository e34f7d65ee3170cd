package disjoint

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/auxgraph"
	"repro/internal/graph"
)

// sameAsExplicit runs ws.Suurballe and the explicit-residual oracle on
// (g, s, t) and returns the first difference: success, Path1, Path2, the
// Weight bits, the second pass's relaxation and heap-operation counts, and
// its distance and tree edge at every vertex.
func sameAsExplicit(ws *Workspace, g *graph.Graph, s, t int) string {
	want := explicitSuurballe(g, s, t)
	got, ok := ws.Suurballe(g, s, t)
	if ok != want.ok {
		return fmt.Sprintf("found %v, explicit residual found %v", ok, want.ok)
	}
	if ok {
		if !slices.Equal(got.Path1, want.pair.Path1) || !slices.Equal(got.Path2, want.pair.Path2) {
			return fmt.Sprintf("pair %v / %v, explicit residual %v / %v", got.Path1, got.Path2, want.pair.Path1, want.pair.Path2)
		}
		if math.Float64bits(got.Weight) != math.Float64bits(want.pair.Weight) {
			return fmt.Sprintf("weight %v, explicit residual %v", got.Weight, want.pair.Weight)
		}
	}
	if want.d2 == nil {
		return ""
	}
	d2 := &ws.d2
	if d2.Relaxations() != want.d2.Relaxations() || d2.HeapOps() != want.d2.HeapOps() {
		return fmt.Sprintf("pass 2 made %d relaxations and %d heap ops, explicit residual %d and %d",
			d2.Relaxations(), d2.HeapOps(), want.d2.Relaxations(), want.d2.HeapOps())
	}
	for v := 0; v < g.N(); v++ {
		if math.Float64bits(d2.Dist(v)) != math.Float64bits(want.d2.Dist(v)) {
			return fmt.Sprintf("pass 2 dist(%d) = %v, explicit residual %v", v, d2.Dist(v), want.d2.Dist(v))
		}
		wantEdge := want.d2.PrevEdge(v)
		if wantEdge >= 0 {
			if aux := want.h.Edge(wantEdge).Aux; aux >= 0 {
				wantEdge = aux
			} else {
				wantEdge = graph.ReversalEdge(^aux)
			}
		}
		if d2.PrevEdge(v) != wantEdge {
			return fmt.Sprintf("pass 2 tree edge of %d is %d, explicit residual %d", v, d2.PrevEdge(v), wantEdge)
		}
	}
	return ""
}

// tieGraph draws a random multigraph built to stress the residual walk:
// integer weights from a small range with many zeros (ties and zero
// reduced costs everywhere), parallel edges and self-loops, and a random
// share of disabled edges.
func tieGraph(rng *rand.Rand) *graph.Graph {
	n := 2 + rng.Intn(14)
	g := graph.New(n)
	m := rng.Intn(6*n + 1)
	for i := 0; i < m; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		w := float64(rng.Intn(4))
		g.AddEdge(u, v, w)
		if rng.Intn(5) == 0 {
			g.AddEdge(u, v, w) // a parallel twin
		}
	}
	for id := 0; id < g.M(); id++ {
		if rng.Float64() < 0.15 {
			g.Disable(id)
		}
	}
	return g
}

// TestSuurballeMatchesExplicitResidual: on random graphs with zero
// weights, parallel edges and disabled edges, Suurballe's implicit second
// pass finds the pair the explicit residual graph finds, bit for bit. One
// workspace serves every case, so per-vertex state left by one graph must
// not leak into the next.
func TestSuurballeMatchesExplicitResidual(t *testing.T) {
	var ws Workspace
	var found int
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var g *graph.Graph
		if seed%2 == 0 {
			g = tieGraph(rng)
		} else {
			g = sparseGraph(rng)
		}
		for k := 0; k < 6; k++ {
			s, d := rng.Intn(g.N()), rng.Intn(g.N())
			if diff := sameAsExplicit(&ws, g, s, d); diff != "" {
				t.Fatalf("seed %d %d→%d: %s", seed, s, d, diff)
			}
			if ws.d2.Reached(d) && s != d {
				found++
			}
		}
	}
	if found < 300 {
		t.Fatalf("degenerate sample: pass 2 reached t only %d times", found)
	}
}

// TestSuurballeReversesEdgeZero: a first path through edge 0 makes pass 2
// take edge 0's reversal, whose tree-edge code must not read as the
// source's −1 (as ^0 would).
func TestSuurballeReversesEdgeZero(t *testing.T) {
	g := trap()
	// The trap's shortest path 0-1-4-5 starts with edge 0, and the optimal
	// pair cancels its middle edge, so pass 2 also walks a reversal.
	var ws Workspace
	if diff := sameAsExplicit(&ws, g, 0, 5); diff != "" {
		t.Fatal(diff)
	}
	if ws.p1[0] != 0 {
		t.Fatalf("first path %v does not start with edge 0", ws.p1)
	}
	// Now a graph where pass 2 must cross edge 0's reversal itself: edge 0
	// is 1→2 on the shortest path 0→1→2→3, and the second path 0→2→1→3
	// only shares it backwards.
	h := graph.New(4)
	h.AddEdge(1, 2, 1) // 0
	h.AddEdge(0, 1, 1) // 1
	h.AddEdge(2, 3, 1) // 2
	h.AddEdge(0, 2, 3) // 3
	h.AddEdge(1, 3, 3) // 4
	if diff := sameAsExplicit(&ws, h, 0, 3); diff != "" {
		t.Fatal(diff)
	}
	if got := ws.d2.PrevEdge(1); got != graph.ReversalEdge(0) {
		t.Fatalf("pass 2 reached 1 by tree edge %d, want edge 0's reversal %d", got, graph.ReversalEdge(0))
	}
	if p, ok := ws.Suurballe(h, 0, 3); !ok || p.Weight != 8 {
		t.Fatalf("pair %+v, %v; want weight 8", p, ok)
	}
}

// TestSuurballeMatchesExplicitResidualOnNSFNET runs the comparison on the
// graphs the router searches: NSFNET skeletons (shared and node-disjoint)
// reweighted for every kind at random load states and thresholds.
func TestSuurballeMatchesExplicitResidualOnNSFNET(t *testing.T) {
	var ws Workspace
	var found int
	for seed := int64(0); seed < 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		net := loadedNSFNET(rng, 1+rng.Intn(8), rng.Float64()*0.8)
		for _, sk := range []*auxgraph.Skeleton{auxgraph.NewSharedSkeleton(net), auxgraph.NewNodeDisjointSkeleton(net)} {
			for k := 0; k < 10; k++ {
				s := rng.Intn(net.Nodes())
				d := (s + 1 + rng.Intn(net.Nodes()-1)) % net.Nodes()
				theta := rng.Float64() * 1.2
				if k%3 == 0 {
					theta = math.Inf(1)
				}
				kind := auxgraph.Kind(rng.Intn(3))
				a := sk.ReweightAt(s, d, auxgraph.Params{Kind: kind, Threshold: theta})
				if diff := sameAsExplicit(&ws, a.G, a.S, a.T); diff != "" {
					t.Fatalf("seed %d %d→%d kind %v ϑ %v: %s", seed, s, d, kind, theta, diff)
				}
				if ws.d2.Reached(a.T) {
					found++
				}
			}
		}
	}
	if found < 100 {
		t.Fatalf("degenerate sample: pass 2 reached t only %d times", found)
	}
}

// FuzzSuurballeImplicitResidual feeds the explicit-residual comparison
// graphs decoded from bytes: each edge is three bytes (tail, head, weight),
// with weights 0–7 so ties and zero reduced costs are common; a weight byte
// with bits 3 and 4 both set (one in four) also disables the edge.
func FuzzSuurballeImplicitResidual(f *testing.F) {
	f.Add(uint8(6), uint8(0), uint8(5), []byte{0, 1, 1, 1, 4, 1, 4, 5, 1, 1, 2, 2, 2, 5, 2, 0, 3, 2, 3, 4, 2})
	f.Add(uint8(4), uint8(0), uint8(3), []byte{1, 2, 1, 0, 1, 1, 2, 3, 1, 0, 2, 3, 1, 3, 3})
	f.Add(uint8(3), uint8(0), uint8(2), []byte{0, 1, 0, 0, 1, 0, 1, 2, 0, 1, 2, 0, 0, 2, 8})
	var ws Workspace
	f.Fuzz(func(t *testing.T, n, s, d uint8, edges []byte) {
		nv := 2 + int(n%30)
		g := graph.New(nv)
		for i := 0; i+2 < len(edges) && g.M() < 400; i += 3 {
			id := g.AddEdge(int(edges[i])%nv, int(edges[i+1])%nv, float64(edges[i+2]%8))
			if edges[i+2]&0x18 == 0x18 {
				g.Disable(id)
			}
		}
		if diff := sameAsExplicit(&ws, g, int(s)%nv, int(d)%nv); diff != "" {
			t.Fatal(diff)
		}
	})
}
