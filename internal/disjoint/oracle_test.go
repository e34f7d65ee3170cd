package disjoint

import (
	"math"
	"sort"

	"repro/internal/graph"
)

// The test oracles of this package: Suurballe's algorithm on an explicitly
// built residual graph (the reference for Workspace.Suurballe's implicit
// one), Bhandari's algorithm (an independent route to Suurballe's optimum),
// the naive two-step heuristic, and brute force over simple paths, with the
// Bellman–Ford and simple-path helpers they need.

// explicitRun is what explicitSuurballe computed: the pair, and its
// second pass on the residual graph h, whose edges carry their original
// edge ID (forward) or ^ID (reversal) in Aux.
type explicitRun struct {
	pair *Pair
	ok   bool
	h    *graph.Graph
	d2   *graph.Workspace // the second pass over h; nil if pass 1 missed t
}

// explicitSuurballe is Suurballe's algorithm as Workspace.Suurballe ran it
// before its second pass went implicit: the residual graph is built edge by
// edge — the surviving forward edges in ascending ID at reduced cost
// w + d(u) − d(v) clamped at 0, then P1's zero-weight reversals in path
// order — and searched with DijkstraInto. Workspace.Suurballe must return
// the same pair, bit for bit, after the same relaxations and heap
// operations.
func explicitSuurballe(g *graph.Graph, s, t int) explicitRun {
	if s == t {
		return explicitRun{}
	}
	var d1 graph.Workspace
	g.DijkstraInto(&d1, s)
	p1, ok := d1.AppendPathTo(nil, t, g)
	if !ok {
		return explicitRun{}
	}
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
		if !d1.Reached(e.From) || !d1.Reached(e.To) {
			continue // unreachable region cannot be on any s→t path
		}
		rc := e.Weight + d1.Dist(e.From) - d1.Dist(e.To)
		if rc < 0 {
			rc = 0 // guard tiny negative from float round-off
		}
		h.AddEdgeAux(e.From, e.To, rc, id)
	}
	for _, id := range p1 {
		e := g.Edge(id)
		h.AddEdgeAux(e.To, e.From, 0, ^id)
	}
	d2 := new(graph.Workspace)
	h.DijkstraInto(d2, s)
	run := explicitRun{h: h, d2: d2}
	q, ok := d2.AppendPathTo(nil, t, h)
	if !ok {
		return run
	}
	run.pair, run.ok = combine(g, s, t, p1, q, h)
	return run
}

// bhandari computes the same optimum as Suurballe but runs Bellman–Ford on a
// residual graph whose P1 reversals carry negated original weights. It is
// an independent oracle: property tests assert the two agree.
func bhandari(g *graph.Graph, s, t int) (*Pair, bool) {
	if s == t {
		return nil, false
	}
	p1, ok := shortestPath(g, s, t)
	if !ok {
		return nil, false
	}

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

	dist, prev, ok := bellmanFord(h, s)
	if !ok || math.IsInf(dist[t], 1) {
		return nil, false
	}
	q := treePath(h, prev, s, t)

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

// twoStep is the naive baseline: take a shortest path, delete its edges, take
// another shortest path. It can fail on "trap" topologies where an optimal
// pair exists but the unconstrained shortest path blocks both, and it is
// never cheaper than Suurballe when it succeeds.
func twoStep(g *graph.Graph, s, t int) (*Pair, bool) {
	if s == t {
		return nil, false
	}
	p1, ok := shortestPath(g, s, t)
	if !ok {
		return nil, false
	}
	for _, id := range p1 {
		g.Disable(id)
	}
	p2, ok := shortestPath(g, s, t)
	for _, id := range p1 {
		g.Enable(id)
	}
	if !ok {
		return nil, false
	}
	return &Pair{Path1: p1, Path2: p2, Weight: g.PathWeight(p1) + g.PathWeight(p2)}, true
}

// bruteForce finds the exact minimum-weight edge-disjoint pair by
// enumerating simple paths — exponential, for tiny graphs only.
func bruteForce(g *graph.Graph, s, t int) (*Pair, bool) {
	if s == t {
		return nil, false
	}
	best := math.Inf(1)
	var bestPair *Pair
	simplePaths(g, s, t, func(pa []int) bool {
		p1 := append([]int(nil), pa...)
		w1 := g.PathWeight(p1)
		if w1 >= best {
			return true
		}
		for _, id := range p1 {
			g.Disable(id)
		}
		simplePaths(g, s, t, func(pb []int) bool {
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

// shortestPath returns a shortest s→t edge-ID path over the enabled edges.
func shortestPath(g *graph.Graph, s, t int) ([]int, bool) {
	var ws graph.Workspace
	g.DijkstraInto(&ws, s)
	return ws.AppendPathTo(nil, t, g)
}

// bellmanFord computes single-source shortest paths allowing negative edge
// weights by queue-based (SPFA-style) relaxation. dist[v] is +Inf and
// prev[v] is −1 for unreachable v; ok is false when a negative cycle is
// reachable from src.
func bellmanFord(g *graph.Graph, src int) (dist []float64, prev []int, ok bool) {
	n := g.N()
	dist = make([]float64, n)
	prev = make([]int, n)
	for v := range dist {
		dist[v] = math.Inf(1)
		prev[v] = -1
	}
	dist[src] = 0
	inQueue := make([]bool, n)
	relaxCount := make([]int, n)
	queue := []int{src}
	inQueue[src] = true
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		inQueue[u] = false
		for _, id := range g.Out(u) {
			if g.Disabled(id) {
				continue
			}
			e := g.Edge(id)
			nd := dist[u] + e.Weight
			if nd < dist[e.To]-1e-12 {
				dist[e.To] = nd
				prev[e.To] = id
				if !inQueue[e.To] {
					relaxCount[e.To]++
					if relaxCount[e.To] > n {
						return dist, prev, false // negative cycle
					}
					queue = append(queue, e.To)
					inQueue[e.To] = true
				}
			}
		}
	}
	return dist, prev, true
}

// treePath reconstructs the edge-ID path from src to v in a shortest-path
// tree given by its tree edges.
func treePath(g *graph.Graph, prev []int, src, v int) []int {
	var rev []int
	for v != src {
		e := prev[v]
		rev = append(rev, e)
		v = g.Edge(e).From
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// simplePaths calls fn with every simple directed src→dst path over the
// enabled edges; the slice passed to fn is reused.
func simplePaths(g *graph.Graph, src, dst int, fn func(path []int) bool) {
	onPath := make([]bool, g.N())
	var path []int
	var stopped bool
	var dfs func(u int)
	dfs = func(u int) {
		if stopped {
			return
		}
		if u == dst {
			if !fn(path) {
				stopped = true
			}
			return
		}
		onPath[u] = true
		for _, id := range g.Out(u) {
			if stopped {
				break
			}
			if g.Disabled(id) {
				continue
			}
			v := g.Edge(id).To
			if onPath[v] || v == src {
				continue
			}
			path = append(path, id)
			dfs(v)
			path = path[:len(path)-1]
		}
		onPath[u] = false
	}
	dfs(src)
}
