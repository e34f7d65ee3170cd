// Package graph implements a directed weighted multigraph and the
// shortest-path machinery the routing algorithms are built on: Dijkstra with
// an indexed heap on a reusable Workspace (DijkstraInto), Yen's k shortest
// loopless paths, bridge detection, and s–t edge connectivity.
package graph

import (
	"fmt"
	"math"
)

// Inf is the distance reported for unreachable vertices.
var Inf = math.Inf(1)

// Edge is a directed arc of a multigraph. ID is the index of the edge in the
// graph's edge list; Aux is a free payload slot callers may use to correlate
// an edge with external state (e.g. the WDM link it was derived from).
type Edge struct {
	ID     int
	From   int
	To     int
	Weight float64
	Aux    int
}

// Graph is a directed weighted multigraph over vertices [0, N). Parallel
// edges and self-loops are permitted; edges may be disabled without removal,
// which the disjoint-path algorithms use to run on residual subgraphs.
type Graph struct {
	n        int
	edges    []Edge
	out      [][]int // out[v] = edge IDs leaving v
	in       [][]int // in[v] = edge IDs entering v
	disabled []bool
}

// New returns an empty graph with n vertices.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Graph{
		n:   n,
		out: make([][]int, n),
		in:  make([][]int, n),
	}
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges (including disabled ones).
func (g *Graph) M() int { return len(g.edges) }

// AddEdge appends a directed edge and returns its ID.
func (g *Graph) AddEdge(from, to int, weight float64) int {
	return g.AddEdgeAux(from, to, weight, -1)
}

// AddEdgeAux appends a directed edge carrying an auxiliary payload.
func (g *Graph) AddEdgeAux(from, to int, weight float64, aux int) int {
	if from < 0 || from >= g.n || to < 0 || to >= g.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", from, to, g.n))
	}
	id := len(g.edges)
	g.edges = append(g.edges, Edge{ID: id, From: from, To: to, Weight: weight, Aux: aux})
	g.out[from] = append(g.out[from], id)
	g.in[to] = append(g.in[to], id)
	g.disabled = append(g.disabled, false)
	return id
}

// Edge returns the edge with the given ID.
func (g *Graph) Edge(id int) Edge { return g.edges[id] }

// SetWeight updates the weight of edge id.
func (g *Graph) SetWeight(id int, w float64) { g.edges[id].Weight = w }

// Out returns the IDs of edges leaving v (including disabled ones).
func (g *Graph) Out(v int) []int { return g.out[v] }

// In returns the IDs of edges entering v (including disabled ones).
func (g *Graph) In(v int) []int { return g.in[v] }

// OutDegree returns the number of enabled edges leaving v.
func (g *Graph) OutDegree(v int) int {
	d := 0
	for _, id := range g.out[v] {
		if !g.disabled[id] {
			d++
		}
	}
	return d
}

// InDegree returns the number of enabled edges entering v.
func (g *Graph) InDegree(v int) int {
	d := 0
	for _, id := range g.in[v] {
		if !g.disabled[id] {
			d++
		}
	}
	return d
}

// Disable hides edge id from traversals until Enable is called.
func (g *Graph) Disable(id int) { g.disabled[id] = true }

// Enable re-activates edge id.
func (g *Graph) Enable(id int) { g.disabled[id] = false }

// Disabled reports whether edge id is currently disabled.
func (g *Graph) Disabled(id int) bool { return g.disabled[id] }

// DisableAll deactivates every edge.
func (g *Graph) DisableAll() {
	d := g.disabled
	if len(d) == 0 {
		return
	}
	// Doubling copies fill the flags with memmove, not one store per edge.
	d[0] = true
	for i := 1; i < len(d); i *= 2 {
		copy(d[i:], d[:i])
	}
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		n:        g.n,
		edges:    append([]Edge(nil), g.edges...),
		out:      make([][]int, g.n),
		in:       make([][]int, g.n),
		disabled: append([]bool(nil), g.disabled...),
	}
	for v := 0; v < g.n; v++ {
		c.out[v] = append([]int(nil), g.out[v]...)
		c.in[v] = append([]int(nil), g.in[v]...)
	}
	return c
}

// PathWeight sums the weights of the given edge-ID path.
func (g *Graph) PathWeight(path []int) float64 {
	w := 0.0
	for _, id := range path {
		w += g.edges[id].Weight
	}
	return w
}

// ValidatePath checks that the edge-ID sequence forms a connected directed
// walk from src to dst over enabled edges.
func (g *Graph) ValidatePath(path []int, src, dst int) error {
	at := src
	for i, id := range path {
		if id < 0 || id >= len(g.edges) {
			return fmt.Errorf("graph: path[%d] = %d out of range", i, id)
		}
		if g.disabled[id] {
			return fmt.Errorf("graph: path[%d] = %d is disabled", i, id)
		}
		e := g.edges[id]
		if e.From != at {
			return fmt.Errorf("graph: path[%d] starts at %d, expected %d", i, e.From, at)
		}
		at = e.To
	}
	if at != dst {
		return fmt.Errorf("graph: path ends at %d, expected %d", at, dst)
	}
	return nil
}
