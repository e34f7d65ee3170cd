package disjoint

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func TestKDisjointEqualsSuurballeAtK2(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 40; trial++ {
		n := 4 + rng.Intn(8)
		g := randGraph(rng, n, 2*n)
		s, d := 0, n-1
		kp, okK := KDisjoint(g, s, d, 2)
		ps, okS := new(Workspace).Suurballe(g, s, d)
		if okK != okS {
			t.Fatalf("trial %d: k-disjoint ok=%v, suurballe ok=%v", trial, okK, okS)
		}
		if !okK {
			continue
		}
		if math.Abs(kp.Weight-ps.Weight) > 1e-9 {
			t.Fatalf("trial %d: k-disjoint %g, suurballe %g", trial, kp.Weight, ps.Weight)
		}
	}
}

func TestKDisjointK1IsShortestPath(t *testing.T) {
	g := trap()
	kp, ok := KDisjoint(g, 0, 5, 1)
	if !ok {
		t.Fatal("k=1 failed")
	}
	var ws graph.Workspace
	g.DijkstraInto(&ws, 0)
	if math.Abs(kp.Weight-ws.Dist(5)) > 1e-9 {
		t.Fatalf("k=1 weight %g, shortest %g", kp.Weight, ws.Dist(5))
	}
	if len(kp.Paths) != 1 {
		t.Fatalf("paths = %d", len(kp.Paths))
	}
}

func TestKDisjointThreePaths(t *testing.T) {
	// Three parallel corridors plus a shared trap chord.
	g := graph.New(5)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 4, 1)
	g.AddEdge(0, 2, 2)
	g.AddEdge(2, 4, 2)
	g.AddEdge(0, 3, 3)
	g.AddEdge(3, 4, 3)
	kp, ok := KDisjoint(g, 0, 4, 3)
	if !ok {
		t.Fatal("3 disjoint paths exist")
	}
	if kp.Weight != 12 {
		t.Fatalf("weight = %g, want 12", kp.Weight)
	}
	if len(kp.Paths) != 3 {
		t.Fatalf("paths = %d", len(kp.Paths))
	}
	seen := map[int]bool{}
	for _, p := range kp.Paths {
		if err := g.ValidatePath(p, 0, 4); err != nil {
			t.Fatal(err)
		}
		for _, id := range p {
			if seen[id] {
				t.Fatalf("edge %d reused", id)
			}
			seen[id] = true
		}
	}
	// k=4 is impossible (out-degree of 0 is 3).
	if _, ok := KDisjoint(g, 0, 4, 4); ok {
		t.Fatal("4 disjoint paths cannot exist")
	}
}

func TestKDisjointInterlacing(t *testing.T) {
	// The k=3 optimum requires rerouting earlier paths (trap at higher k):
	// a graph where greedy shortest-path picks edges needed by the only
	// 3-path decomposition.
	g := graph.New(6)
	// Corridors: 0-1-5, 0-2-5, 0-3-5 with a tempting shortcut 1-2.
	g.AddEdge(0, 1, 1)  // 0
	g.AddEdge(1, 5, 10) // 1
	g.AddEdge(0, 2, 1)  // 2
	g.AddEdge(2, 5, 1)  // 3
	g.AddEdge(0, 3, 1)  // 4
	g.AddEdge(3, 5, 2)  // 5
	g.AddEdge(1, 2, 0)  // 6 shortcut: 0-1-2-5 = 2 < direct corridors
	kp, ok := KDisjoint(g, 0, 5, 3)
	if !ok {
		t.Fatal("3 disjoint paths exist")
	}
	// Optimal: 0-1-5? The only 3-path set must use all three out-edges of 0
	// and all three in-edges of 5: {0-1(1),1-5(10)}, {0-2,2-5}, {0-3,3-5}
	// or with the shortcut swap: 0-1-2-5 + 0-2?-- 0-2 used... enumerate:
	// out(0) = {0,2,4}, in(5) = {1,3,5}. Shortcut lets path A be 0-1-2-5
	// only if 0-2 path uses... 0-2 edge is separate from 1-2. So
	// {0-1-2-5 (1+0+1=2), 0-2-5 (1+1=2)?} — both need edge 2-5. Conflict.
	// Hence optimum = 1+10 + 1+1 + 1+2 = 16.
	if kp.Weight != 16 {
		t.Fatalf("weight = %g, want 16", kp.Weight)
	}
}

func TestKDisjointDegenerate(t *testing.T) {
	g := trap()
	if _, ok := KDisjoint(g, 0, 0, 2); ok {
		t.Fatal("s == t accepted")
	}
	if _, ok := KDisjoint(g, 0, 5, 0); ok {
		t.Fatal("k = 0 accepted")
	}
	if _, ok := KDisjoint(g, 0, 5, 3); ok {
		t.Fatal("trap has only 2 disjoint paths")
	}
}

func TestKDisjointRespectsDisabled(t *testing.T) {
	g := graph.New(2)
	g.AddEdge(0, 1, 1)
	e := g.AddEdge(0, 1, 2)
	g.AddEdge(0, 1, 3)
	kp, ok := KDisjoint(g, 0, 1, 2)
	if !ok || kp.Weight != 3 {
		t.Fatalf("weight = %v ok=%v", kp, ok)
	}
	g.Disable(e)
	kp, ok = KDisjoint(g, 0, 1, 2)
	if !ok || kp.Weight != 4 {
		t.Fatalf("after disable: weight = %v ok=%v", kp, ok)
	}
}

// Property: total weight is monotone in k and each k-set is valid and
// edge-disjoint.
func TestQuickKDisjointMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(6)
		g := randGraph(rng, n, 3*n)
		s, d := 0, n-1
		prev := 0.0
		prevPer := 0.0
		for k := 1; k <= 4; k++ {
			kp, ok := KDisjoint(g, s, d, k)
			if !ok {
				break
			}
			if len(kp.Paths) != k {
				return false
			}
			seen := map[int]bool{}
			for _, p := range kp.Paths {
				if g.ValidatePath(p, s, d) != nil {
					return false
				}
				for _, id := range p {
					if seen[id] {
						return false
					}
					seen[id] = true
				}
			}
			if kp.Weight < prev-1e-9 {
				return false // adding a path cannot reduce total weight
			}
			// Average path weight is non-decreasing in k (convexity of
			// min-cost flow).
			per := kp.Weight / float64(k)
			if k > 1 && per < prevPer-1e-9 {
				return false
			}
			prev = kp.Weight
			prevPer = per
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkKDisjoint4(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := randGraph(rng, 300, 1500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		KDisjoint(g, i%300, (i+150)%300, 4)
	}
}

// Menger cross-check: KDisjoint succeeds at exactly k ≤ EdgeConnectivity.
func TestKDisjointMatchesEdgeConnectivity(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 30; trial++ {
		n := 4 + rng.Intn(6)
		g := randGraph(rng, n, 2*n)
		s, d := 0, n-1
		conn := g.EdgeConnectivity(s, d)
		for k := 1; k <= conn+1; k++ {
			_, ok := KDisjoint(g, s, d, k)
			if want := k <= conn; ok != want {
				t.Fatalf("trial %d: k=%d ok=%v, connectivity=%d", trial, k, ok, conn)
			}
		}
	}
}
