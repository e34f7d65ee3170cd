package graph

// The test oracles of this package: Bellman–Ford, which checks Dijkstra's
// distances, and simple-path enumeration, which checks Yen by brute force.

// bellmanFord computes single-source shortest paths allowing negative edge
// weights by queue-based (SPFA-style) relaxation. dist[v] is Inf and prev[v]
// is −1 for unreachable v; ok is false when a negative cycle is reachable
// from src.
func bellmanFord(g *Graph, src int) (dist []float64, prev []int, ok bool) {
	dist = make([]float64, g.n)
	prev = make([]int, g.n)
	for v := range dist {
		dist[v] = Inf
		prev[v] = -1
	}
	dist[src] = 0
	inQueue := make([]bool, g.n)
	relaxCount := make([]int, g.n)
	queue := []int{src}
	inQueue[src] = true
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		inQueue[u] = false
		for _, id := range g.out[u] {
			if g.disabled[id] {
				continue
			}
			e := &g.edges[id]
			nd := dist[u] + e.Weight
			if nd < dist[e.To]-1e-12 {
				dist[e.To] = nd
				prev[e.To] = id
				if !inQueue[e.To] {
					relaxCount[e.To]++
					if relaxCount[e.To] > g.n {
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

// treePath reconstructs the edge-ID path from src to a reached v in a
// shortest-path tree given by its tree edges.
func treePath(g *Graph, prev []int, src, v int) []int {
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

// simplePaths enumerates all simple directed paths (no repeated vertex) from
// src to dst over enabled edges, invoking fn with each edge-ID path. The
// slice passed to fn is reused; callers must copy it to retain it. If fn
// returns false, enumeration stops. maxLen bounds path length in edges
// (<= 0 means no bound). Exponential: for small graphs only.
func simplePaths(g *Graph, src, dst, maxLen int, fn func(path []int) bool) {
	if maxLen <= 0 {
		maxLen = g.n // simple path cannot exceed n-1 edges anyway
	}
	onPath := make([]bool, g.n)
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
		if len(path) >= maxLen {
			return
		}
		onPath[u] = true
		for _, id := range g.out[u] {
			if stopped {
				break
			}
			if g.disabled[id] {
				continue
			}
			v := g.edges[id].To
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
