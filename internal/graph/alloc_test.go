//go:build !race

// Allocation-regression tests. The race detector instruments allocations and
// breaks testing.AllocsPerOp accounting, so this file is excluded from -race
// runs; the same scenarios run race-enabled (without the alloc assertions)
// elsewhere in the suite.
package graph

import (
	"math/rand"
	"testing"
)

// TestDijkstraIntoZeroAllocs pins the tentpole property: once a Workspace has
// warmed up to the graph size, DijkstraInto performs no heap allocations.
func TestDijkstraIntoZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := New(200)
	for v := 0; v < 200; v++ {
		g.AddEdge(v, (v+1)%200, 1+rng.Float64())
	}
	for i := 0; i < 600; i++ {
		g.AddEdge(rng.Intn(200), rng.Intn(200), 1+rng.Float64()*4)
	}
	ws := &Workspace{}
	g.DijkstraInto(ws, 0) // warm up
	allocs := testing.AllocsPerRun(100, func() {
		g.DijkstraInto(ws, 3)
	})
	if allocs != 0 {
		t.Fatalf("warm DijkstraInto allocates %.1f/op, want 0", allocs)
	}
}

// TestAppendPathToZeroAllocs verifies path extraction reuses the caller's
// buffer once it has grown to the path length.
func TestAppendPathToZeroAllocs(t *testing.T) {
	g := New(50)
	for v := 0; v < 49; v++ {
		g.AddEdge(v, v+1, 1)
	}
	ws := &Workspace{}
	g.DijkstraInto(ws, 0)
	buf, ok := ws.AppendPathTo(nil, 49, g)
	if !ok || len(buf) != 49 {
		t.Fatalf("path = %d edges, ok=%v; want 49, true", len(buf), ok)
	}
	allocs := testing.AllocsPerRun(100, func() {
		buf, _ = ws.AppendPathTo(buf[:0], 49, g)
	})
	if allocs != 0 {
		t.Fatalf("warm AppendPathTo allocates %.1f/op, want 0", allocs)
	}
}
