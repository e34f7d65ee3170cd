package graph

import (
	"math/rand"
	"sort"
	"testing"
)

// undirectedPair adds both directions of a span and returns both IDs.
func undirectedPair(g *Graph, a, b int) (int, int) {
	return g.AddEdge(a, b, 1), g.AddEdge(b, a, 1)
}

func TestBridgesLine(t *testing.T) {
	g := New(3)
	undirectedPair(g, 0, 1)
	undirectedPair(g, 1, 2)
	br := g.Bridges()
	if len(br) != 4 { // both spans, each with 2 directed edges
		t.Fatalf("bridges = %v, want all 4 edges", br)
	}
}

func TestBridgesRing(t *testing.T) {
	g := New(5)
	for v := 0; v < 5; v++ {
		undirectedPair(g, v, (v+1)%5)
	}
	if br := g.Bridges(); len(br) != 0 {
		t.Fatalf("ring has bridges: %v", br)
	}
}

func TestBridgesBarbell(t *testing.T) {
	// Two triangles joined by one span: only the joining span bridges.
	g := New(6)
	undirectedPair(g, 0, 1)
	undirectedPair(g, 1, 2)
	undirectedPair(g, 2, 0)
	undirectedPair(g, 3, 4)
	undirectedPair(g, 4, 5)
	undirectedPair(g, 5, 3)
	a, b := undirectedPair(g, 2, 3)
	br := g.Bridges()
	sort.Ints(br)
	if len(br) != 2 || br[0] != a || br[1] != b {
		t.Fatalf("bridges = %v, want [%d %d]", br, a, b)
	}
}

func TestParallelFibersStillBridgeAsOneConduit(t *testing.T) {
	// Parallel fibers between the same endpoints share the conduit: the
	// span is still a bridge (a conduit cut removes them all).
	g := New(2)
	undirectedPair(g, 0, 1)
	undirectedPair(g, 0, 1)
	if br := g.Bridges(); len(br) != 4 {
		t.Fatalf("doubled conduit must bridge: %v", br)
	}
	// Two node-disjoint conduits are survivable.
	g2 := New(3)
	undirectedPair(g2, 0, 1)
	undirectedPair(g2, 1, 2)
	undirectedPair(g2, 0, 2)
	if br := g2.Bridges(); len(br) != 0 {
		t.Fatalf("triangle has bridges: %v", br)
	}
}

func TestBridgesDisconnected(t *testing.T) {
	g := New(4)
	undirectedPair(g, 0, 1)
	undirectedPair(g, 2, 3)
	if len(g.Bridges()) != 4 {
		t.Fatal("both isolated spans are bridges")
	}
}

func TestBridgesRespectDisabled(t *testing.T) {
	g := New(3)
	undirectedPair(g, 0, 1)
	undirectedPair(g, 1, 2)
	c1, c2 := undirectedPair(g, 0, 2) // close the triangle
	if len(g.Bridges()) != 0 {
		t.Fatal("triangle has no bridges")
	}
	g.Disable(c1)
	g.Disable(c2)
	if len(g.Bridges()) != 4 {
		t.Fatal("disabling the closing span should expose both bridges")
	}
}

func TestBridgesSelfLoopIgnored(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 0, 1)
	undirectedPair(g, 0, 1)
	undirectedPair(g, 1, 2)
	undirectedPair(g, 0, 2)
	if len(g.Bridges()) != 0 {
		t.Fatal("self-loop misclassified")
	}
}

// Cross-check against brute force: a span is a bridge iff disabling it
// disconnects the underlying undirected graph.
func TestBridgesMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	undirectedConnected := func(g *Graph) bool {
		seen := make([]bool, g.N())
		stack := []int{0}
		seen[0] = true
		count := 1
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			visit := func(u int) {
				if !seen[u] {
					seen[u] = true
					count++
					stack = append(stack, u)
				}
			}
			for _, id := range g.Out(v) {
				if !g.Disabled(id) {
					visit(g.Edge(id).To)
				}
			}
			for _, id := range g.In(v) {
				if !g.Disabled(id) {
					visit(g.Edge(id).From)
				}
			}
		}
		return count == g.N()
	}
	for trial := 0; trial < 40; trial++ {
		n := 4 + rng.Intn(5)
		g := New(n)
		// Random connected-ish undirected multigraph.
		for v := 1; v < n; v++ {
			undirectedPair(g, v, rng.Intn(v))
		}
		for i := 0; i < n/2; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				undirectedPair(g, u, v)
			}
		}
		got := map[int]bool{}
		for _, id := range g.Bridges() {
			got[id] = true
		}
		// Brute force per span: disable all edges of the span, test
		// connectivity.
		type span struct{ a, b int }
		spans := map[span][]int{}
		for id := 0; id < g.M(); id++ {
			e := g.Edge(id)
			a, b := e.From, e.To
			if a > b {
				a, b = b, a
			}
			spans[span{a, b}] = append(spans[span{a, b}], id)
		}
		for _, ids := range spans {
			for _, id := range ids {
				g.Disable(id)
			}
			isBridge := !undirectedConnected(g)
			for _, id := range ids {
				g.Enable(id)
			}
			for _, id := range ids {
				if got[id] != isBridge {
					t.Fatalf("trial %d: edge %d bridge=%v, brute=%v", trial, id, got[id], isBridge)
				}
			}
		}
	}
}
