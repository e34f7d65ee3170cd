//go:build !race

// Allocation-regression tests, excluded from -race runs (the detector's
// instrumentation breaks testing.AllocsPerOp accounting).
package disjoint

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// TestWorkspaceSuurballeZeroAllocs pins the tentpole property: a warmed
// Workspace runs the full Suurballe pipeline — both Dijkstra passes (the
// second on the implicit residual graph) and the combine phase — without
// heap allocations.
func TestWorkspaceSuurballeZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := graph.New(100)
	for v := 0; v < 100; v++ {
		g.AddEdge(v, (v+1)%100, 1+rng.Float64())
		g.AddEdge((v+1)%100, v, 1+rng.Float64())
	}
	for i := 0; i < 200; i++ {
		g.AddEdge(rng.Intn(100), rng.Intn(100), 1+rng.Float64()*4)
	}
	ws := &Workspace{}
	if _, ok := ws.Suurballe(g, 0, 50); !ok {
		t.Fatal("no disjoint pair on ring+chords graph")
	}
	allocs := testing.AllocsPerRun(100, func() {
		ws.Suurballe(g, 2, 71)
	})
	if allocs != 0 {
		t.Fatalf("warm Workspace.Suurballe allocates %.1f/op, want 0", allocs)
	}
}

// TestWorkspaceFeasibleZeroAllocs pins the MinCog round test: a warmed
// Workspace runs both BFS augmentations on its stamped buffers without heap
// allocations, on feasible and infeasible pairs alike.
func TestWorkspaceFeasibleZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := graph.New(100)
	for v := 0; v < 100; v++ {
		g.AddEdge(v, (v+1)%100, 1+rng.Float64())
		g.AddEdge((v+1)%100, v, 1+rng.Float64())
	}
	for i := 0; i < 200; i++ {
		g.AddEdge(rng.Intn(100), rng.Intn(100), 1+rng.Float64()*4)
	}
	// tail hangs vertex 100 off g by one edge: it has no second path.
	tail := graph.New(101)
	for id := 0; id < g.M(); id++ {
		e := g.Edge(id)
		tail.AddEdge(e.From, e.To, e.Weight)
	}
	tail.AddEdge(50, 100, 1)
	ws := &Workspace{}
	if ws.StartFlow(g, 0, 50) != 2 || ws.StartFlow(tail, 0, 100) == 2 {
		t.Fatal("warm-up answers wrong")
	}
	allocs := testing.AllocsPerRun(100, func() {
		ws.StartFlow(g, 2, 71)
		ws.StartFlow(tail, 3, 100)
	})
	if allocs != 0 {
		t.Fatalf("warm feasibility test allocates %.1f/op, want 0", allocs)
	}
}

// TestWorkspaceExtendFlowZeroAllocs pins the bottleneck pass's search: a
// warmed Workspace starts on an all-disabled graph and resumes after every
// batch of enabled edges without heap allocations.
func TestWorkspaceExtendFlowZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := graph.New(100)
	for v := 0; v < 100; v++ {
		g.AddEdge(v, (v+1)%100, 1)
		g.AddEdge((v+1)%100, v, 1)
	}
	for i := 0; i < 200; i++ {
		g.AddEdge(rng.Intn(100), rng.Intn(100), 1)
	}
	order := rng.Perm(g.M())
	ws := &Workspace{}
	run := func() int {
		g.DisableAll()
		flow := ws.StartFlow(g, 2, 71)
		for lo := 0; lo < len(order); lo += 16 {
			batch := order[lo:min(lo+16, len(order))]
			for _, id := range batch {
				g.Enable(id)
			}
			if flow = ws.ExtendFlow(batch); flow == 2 {
				break
			}
		}
		return flow
	}
	if run() != 2 {
		t.Fatal("warm-up found no disjoint pair on the ring+chords graph")
	}
	if allocs := testing.AllocsPerRun(100, func() { run() }); allocs != 0 {
		t.Fatalf("warm StartFlow/ExtendFlow allocates %.1f/op, want 0", allocs)
	}
}
