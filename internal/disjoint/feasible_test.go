package disjoint

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// TestFeasibleTrapAndChain checks the feasibility test MinCog runs each
// round: StartFlow reaching 2 with every edge admitted at once.
func TestFeasibleTrapAndChain(t *testing.T) {
	ws := new(Workspace)
	// The trap's fewest-hop path 0-1-4-5 blocks every second path, so only
	// the residual reversal of edge 1→4 finds the pair.
	if ws.StartFlow(trap(), 0, 5) != 2 {
		t.Fatal("StartFlow misses the trap's disjoint pair")
	}
	chain := graph.New(3)
	chain.AddEdge(0, 1, 1)
	chain.AddEdge(1, 2, 1)
	for _, c := range [][2]int{{0, 2}, {0, 0}, {2, 0}} {
		if ws.StartFlow(chain, c[0], c[1]) == 2 {
			t.Errorf("StartFlow(%d, %d) on a chain reached 2", c[0], c[1])
		}
	}
	g := graph.New(2)
	e0 := g.AddEdge(0, 1, 1)
	g.AddEdge(0, 1, 1)
	if ws.StartFlow(g, 0, 1) != 2 {
		t.Fatal("two parallel edges are two disjoint paths")
	}
	g.Disable(e0)
	if ws.StartFlow(g, 0, 1) == 2 {
		t.Fatal("StartFlow used a disabled edge")
	}
}

// sparseGraph draws a random directed multigraph sparse enough that many
// pairs have fewer than two edge-disjoint paths: self-loops and parallel
// edges included, positive weights, a random share of edges disabled.
func sparseGraph(rng *rand.Rand) *graph.Graph {
	n := 2 + rng.Intn(11)
	g := graph.New(n)
	m := rng.Intn(5*n + 1)
	for i := 0; i < m; i++ {
		g.AddEdge(rng.Intn(n), rng.Intn(n), 0.5+rng.Float64()*4)
	}
	for id := 0; id < g.M(); id++ {
		if rng.Float64() < 0.2 {
			g.Disable(id)
		}
	}
	return g
}

// TestFeasibleMatchesSuurballeAndConnectivity is the exactness property the
// MinCog search relies on: on graphs with positive weights, StartFlow
// reaching 2, Suurballe's success and Menger's max-flow count agree on every
// pair. One
// workspace serves every case, so stale stamps from earlier graphs (larger
// or smaller) must never leak into a later answer.
func TestFeasibleMatchesSuurballeAndConnectivity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ws, sw := new(Workspace), new(Workspace)
	var yes, no int
	for i := 0; i < 4000; i++ {
		g := sparseGraph(rng)
		s, d := rng.Intn(g.N()), rng.Intn(g.N())
		feasible := ws.StartFlow(g, s, d) == 2
		_, suurballe := sw.Suurballe(g, s, d)
		menger := g.EdgeConnectivity(s, d) >= 2
		if feasible != suurballe || feasible != menger {
			t.Fatalf("case %d (%d→%d, n=%d, m=%d): StartFlow=2 %v, Suurballe %v, EdgeConnectivity≥2 %v",
				i, s, d, g.N(), g.M(), feasible, suurballe, menger)
		}
		if feasible {
			yes++
		} else {
			no++
		}
	}
	if yes < 400 || no < 400 {
		t.Fatalf("degenerate sample: %d feasible, %d infeasible", yes, no)
	}
}

// TestExtendFlowMatchesConnectivity enables each graph's edges in random
// batches and checks that after every batch the incremental search reports
// min(2, s→t edge connectivity) of the enabled subgraph — the exactness the
// MinCog bottleneck pass relies on. One workspace serves every case.
func TestExtendFlowMatchesConnectivity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ws := new(Workspace)
	var flows [3]int
	for i := 0; i < 1500; i++ {
		g := sparseGraph(rng)
		s, d := rng.Intn(g.N()), rng.Intn(g.N())
		order := rng.Perm(g.M())
		g.DisableAll()
		flow := ws.StartFlow(g, s, d)
		for len(order) > 0 {
			k := 1 + rng.Intn(len(order))
			batch := order[:k]
			order = order[k:]
			for _, id := range batch {
				g.Enable(id)
			}
			flow = ws.ExtendFlow(batch)
			want := min(2, g.EdgeConnectivity(s, d))
			if s == d {
				want = 0
			}
			if flow != want {
				t.Fatalf("case %d (%d→%d, n=%d, m=%d): flow %d after a batch, connectivity says %d",
					i, s, d, g.N(), g.M(), flow, want)
			}
		}
		flows[flow]++
	}
	if flows[0] < 100 || flows[1] < 100 || flows[2] < 100 {
		t.Fatalf("degenerate sample: final flows %v", flows)
	}
}
