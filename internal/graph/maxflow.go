package graph

// EdgeConnectivity returns the maximum number of pairwise edge-disjoint
// s→t paths over the enabled edges — by Menger's theorem, the unit-capacity
// max flow — computed with Dinic's algorithm. It bounds the protection
// level k any router can achieve for the pair (cross-validated against an
// exhaustive min-cut enumeration in tests).
func (g *Graph) EdgeConnectivity(s, t int) int {
	if s == t || s < 0 || t < 0 || s >= g.n || t >= g.n {
		return 0
	}
	// Residual network over unit-capacity arcs: arcs[i] and arcs[i^1] are
	// partners (forward/backward).
	type arc struct {
		to  int
		cap int
	}
	var arcs []arc
	head := make([][]int, g.n)
	addArc := func(u, v int) {
		head[u] = append(head[u], len(arcs))
		arcs = append(arcs, arc{to: v, cap: 1})
		head[v] = append(head[v], len(arcs))
		arcs = append(arcs, arc{to: u, cap: 0})
	}
	for id := 0; id < g.M(); id++ {
		if g.Disabled(id) {
			continue
		}
		e := g.Edge(id)
		if e.From == e.To {
			continue
		}
		addArc(e.From, e.To)
	}

	level := make([]int, g.n)
	iter := make([]int, g.n)
	queue := make([]int, 0, g.n)

	bfs := func() bool {
		for i := range level {
			level[i] = -1
		}
		level[s] = 0
		queue = queue[:0]
		queue = append(queue, s)
		for qi := 0; qi < len(queue); qi++ {
			u := queue[qi]
			for _, ai := range head[u] {
				a := arcs[ai]
				if a.cap > 0 && level[a.to] < 0 {
					level[a.to] = level[u] + 1
					queue = append(queue, a.to)
				}
			}
		}
		return level[t] >= 0
	}

	var dfs func(u, f int) int
	dfs = func(u, f int) int {
		if u == t {
			return f
		}
		for ; iter[u] < len(head[u]); iter[u]++ {
			ai := head[u][iter[u]]
			a := &arcs[ai]
			if a.cap > 0 && level[a.to] == level[u]+1 {
				if d := dfs(a.to, min(f, a.cap)); d > 0 {
					a.cap -= d
					arcs[ai^1].cap += d
					return d
				}
			}
		}
		return 0
	}

	flow := 0
	for bfs() {
		for i := range iter {
			iter[i] = 0
		}
		for {
			f := dfs(s, 1<<30)
			if f == 0 {
				break
			}
			flow += f
		}
	}
	return flow
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
