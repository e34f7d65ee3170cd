// Package disjoint finds a pair of edge-disjoint directed paths of minimum
// total weight — Suurballe's algorithm [21], which the paper's
// Find_Two_Paths procedure instantiates. Two interchangeable implementations
// are provided: Workspace.Suurballe (Dijkstra with potentials, the paper's
// O(m log n) term) and Bhandari (Bellman–Ford on a residual graph with
// negated arcs), plus the naive TwoStep heuristic used as the E7 baseline.
package disjoint

import (
	"math"
	"sort"

	"repro/internal/graph"
)

// Pair is a pair of edge-disjoint paths from s to t, each a sequence of
// edge IDs of the input graph, plus their combined weight.
type Pair struct {
	Path1  []int
	Path2  []int
	Weight float64
}

// Bhandari computes the same optimum as Suurballe but runs Bellman–Ford on a
// residual graph whose P1 reversals carry negated original weights. It is
// kept as an independent oracle: property tests assert the two agree.
func Bhandari(g *graph.Graph, s, t int) (*Pair, bool) {
	if s == t {
		return nil, false
	}
	d1 := g.Dijkstra(s)
	if !d1.Reached(t) {
		return nil, false
	}
	p1 := d1.PathTo(t, g)

	m := g.M()
	h := graph.New(g.N())
	onP1 := make([]bool, m)
	for _, id := range p1 {
		onP1[id] = true
	}
	for id := 0; id < m; id++ {
		if g.Disabled(id) || onP1[id] {
			continue
		}
		e := g.Edge(id)
		h.AddEdgeAux(e.From, e.To, e.Weight, id)
	}
	for _, id := range p1 {
		e := g.Edge(id)
		h.AddEdgeAux(e.To, e.From, -e.Weight, ^id)
	}

	d2, ok := h.BellmanFord(s)
	if !ok || !d2.Reached(t) {
		return nil, false
	}
	q := d2.PathTo(t, h)

	return combine(g, s, t, p1, q, h)
}

// combine cancels interlacing edges between P1 and the second-pass path Q
// (edges of Q with Aux = ^origID are reversals of P1 edges) and decomposes
// the remaining edge multiset into two edge-disjoint s→t paths.
func combine(g *graph.Graph, s, t int, p1, q []int, h *graph.Graph) (*Pair, bool) {
	use := make(map[int]int) // original edge ID -> multiplicity (0 or 1)
	for _, id := range p1 {
		use[id]++
	}
	for _, hid := range q {
		aux := h.Edge(hid).Aux
		if aux < 0 {
			delete(use, ^aux) // reversal cancels the P1 edge
		} else {
			use[aux]++
		}
	}
	// Build adjacency over the surviving edges, in sorted edge-ID order so
	// the decomposition (and hence which path is reported first) is
	// deterministic.
	ids := make([]int, 0, len(use))
	for id, mult := range use {
		if mult <= 0 {
			continue
		}
		if mult > 1 {
			return nil, false // defensive: should not happen for simple paths
		}
		ids = append(ids, id)
	}
	sort.Ints(ids)
	adj := make(map[int][]int) // node -> outgoing original edge IDs
	total := 0.0
	edgeCount := len(ids)
	for _, id := range ids {
		e := g.Edge(id)
		adj[e.From] = append(adj[e.From], id)
		total += e.Weight
	}
	extract := func() []int {
		var path []int
		at := s
		for at != t {
			out := adj[at]
			if len(out) == 0 {
				return nil
			}
			id := out[len(out)-1]
			adj[at] = out[:len(out)-1]
			path = append(path, id)
			at = g.Edge(id).To
			if len(path) > edgeCount {
				return nil // cycle guard
			}
		}
		return path
	}
	path1 := extract()
	path2 := extract()
	if path1 == nil || path2 == nil {
		return nil, false
	}
	return &Pair{Path1: path1, Path2: path2, Weight: total}, true
}

// TwoStep is the naive baseline: take a shortest path, delete its edges, take
// another shortest path. It can fail on "trap" topologies where an optimal
// pair exists but the unconstrained shortest path blocks both, and it is
// never cheaper than Suurballe when it succeeds.
func TwoStep(g *graph.Graph, s, t int) (*Pair, bool) {
	if s == t {
		return nil, false
	}
	d1 := g.Dijkstra(s)
	if !d1.Reached(t) {
		return nil, false
	}
	p1 := d1.PathTo(t, g)
	for _, id := range p1 {
		g.Disable(id)
	}
	d2 := g.Dijkstra(s)
	var p2 []int
	if d2.Reached(t) {
		p2 = d2.PathTo(t, g)
	}
	for _, id := range p1 {
		g.Enable(id)
	}
	if p2 == nil {
		return nil, false
	}
	return &Pair{Path1: p1, Path2: p2, Weight: g.PathWeight(p1) + g.PathWeight(p2)}, true
}

// BruteForce finds the exact minimum-weight edge-disjoint pair by enumerating
// simple paths — exponential, for tests and tiny exact baselines only.
func BruteForce(g *graph.Graph, s, t int) (*Pair, bool) {
	if s == t {
		return nil, false
	}
	best := math.Inf(1)
	var bestPair *Pair
	g.SimplePaths(s, t, 0, func(pa []int) bool {
		p1 := append([]int(nil), pa...)
		w1 := g.PathWeight(p1)
		if w1 >= best {
			return true
		}
		for _, id := range p1 {
			g.Disable(id)
		}
		g.SimplePaths(s, t, 0, func(pb []int) bool {
			w2 := g.PathWeight(pb)
			if w1+w2 < best {
				best = w1 + w2
				bestPair = &Pair{
					Path1:  p1,
					Path2:  append([]int(nil), pb...),
					Weight: best,
				}
			}
			return true
		})
		for _, id := range p1 {
			g.Enable(id)
		}
		return true
	})
	return bestPair, bestPair != nil
}
