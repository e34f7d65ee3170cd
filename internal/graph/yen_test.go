package graph

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestYenDiamond(t *testing.T) {
	g := diamond()
	paths := g.Yen(0, 3, 5)
	// Exactly three simple paths exist: 0-1-3 (8? recompute): edges
	// 0→1(1), 0→2(4), 1→2(2), 1→3(7), 2→3(1):
	// 0-1-2-3 = 4, 0-2-3 = 5, 0-1-3 = 8.
	if len(paths) != 3 {
		t.Fatalf("found %d paths, want 3", len(paths))
	}
	want := []float64{4, 5, 8}
	for i, p := range paths {
		if err := g.ValidatePath(p, 0, 3); err != nil {
			t.Fatal(err)
		}
		if math.Abs(g.PathWeight(p)-want[i]) > 1e-9 {
			t.Fatalf("path %d weight = %g, want %g", i, g.PathWeight(p), want[i])
		}
	}
}

func TestYenDegenerate(t *testing.T) {
	g := diamond()
	if g.Yen(0, 0, 3) != nil {
		t.Fatal("s == t should yield nil")
	}
	if g.Yen(0, 3, 0) != nil {
		t.Fatal("K = 0 should yield nil")
	}
	if g.Yen(3, 0, 2) != nil {
		t.Fatal("unreachable should yield nil")
	}
}

func TestYenParallelEdges(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1, 1)
	g.AddEdge(0, 1, 2)
	g.AddEdge(0, 1, 3)
	paths := g.Yen(0, 1, 5)
	if len(paths) != 3 {
		t.Fatalf("found %d paths, want 3", len(paths))
	}
	for i, w := range []float64{1, 2, 3} {
		if g.PathWeight(paths[i]) != w {
			t.Fatalf("path %d weight %g, want %g", i, g.PathWeight(paths[i]), w)
		}
	}
}

func TestYenLeavesGraphIntact(t *testing.T) {
	g := diamond()
	g.Disable(3) // 1→3
	g.Yen(0, 3, 4)
	if !g.Disabled(3) {
		t.Fatal("Yen re-enabled a caller-disabled edge")
	}
	for id := 0; id < g.M(); id++ {
		if id != 3 && g.Disabled(id) {
			t.Fatalf("Yen left edge %d disabled", id)
		}
	}
	// And it respected the disabled edge: 0-1-3 must be absent.
	for _, p := range g.Yen(0, 3, 5) {
		for _, id := range p {
			if id == 3 {
				t.Fatal("Yen used a disabled edge")
			}
		}
	}
}

// Brute-force K shortest simple paths for cross-checking.
func bruteKShortest(g *Graph, s, t, k int) []float64 {
	var weights []float64
	simplePaths(g, s, t, 0, func(p []int) bool {
		weights = append(weights, g.PathWeight(p))
		return true
	})
	sort.Float64s(weights)
	if len(weights) > k {
		weights = weights[:k]
	}
	return weights
}

func TestYenMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 40; trial++ {
		n := 4 + rng.Intn(4)
		g := New(n)
		for i := 0; i < 3*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				g.AddEdge(u, v, 1+rng.Float64()*5)
			}
		}
		const k = 6
		paths := g.Yen(0, n-1, k)
		want := bruteKShortest(g, 0, n-1, k)
		if len(paths) != len(want) {
			t.Fatalf("trial %d: yen found %d, brute %d", trial, len(paths), len(want))
		}
		seen := map[string]bool{}
		prev := 0.0
		for i, p := range paths {
			if err := g.ValidatePath(p, 0, n-1); err != nil {
				t.Fatal(err)
			}
			// Vertex-simple.
			visited := map[int]bool{0: true}
			for _, id := range p {
				v := g.Edge(id).To
				if visited[v] {
					t.Fatalf("trial %d: path %d revisits vertex %d", trial, i, v)
				}
				visited[v] = true
			}
			key := pathKey(p)
			if seen[key] {
				t.Fatalf("trial %d: duplicate path", trial)
			}
			seen[key] = true
			w := g.PathWeight(p)
			if w < prev-1e-9 {
				t.Fatalf("trial %d: weights not sorted", trial)
			}
			prev = w
			if math.Abs(w-want[i]) > 1e-9 {
				t.Fatalf("trial %d: path %d weight %g, want %g", trial, i, w, want[i])
			}
		}
	}
}

func BenchmarkYen8(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := New(60)
	for i := 0; i < 300; i++ {
		u, v := rng.Intn(60), rng.Intn(60)
		if u != v {
			g.AddEdge(u, v, 1+rng.Float64())
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Yen(i%60, (i+30)%60, 8)
	}
}
