package graph

// Bridges returns the edge IDs of bridge spans. A span is the set of all
// enabled edges between one unordered endpoint pair — in a WDM network, all
// fibers in one conduit, both directions and parallels included. A span is
// a bridge when cutting the whole conduit disconnects the underlying
// undirected graph; every edge ID of each bridge span is returned. Robust
// routing cannot protect traffic across a bridge span (no edge-disjoint
// alternative exists at conduit granularity), so the topology tools use
// this as a survivability precheck.
func (g *Graph) Bridges() []int {
	// Collapse the directed multigraph into undirected spans.
	type span struct{ a, b int }
	spanEdges := map[span][]int{}
	for id := 0; id < g.M(); id++ {
		if g.Disabled(id) {
			continue
		}
		e := g.Edge(id)
		a, b := e.From, e.To
		if a == b {
			continue // self-loops are never bridges
		}
		if a > b {
			a, b = b, a
		}
		spanEdges[span{a, b}] = append(spanEdges[span{a, b}], id)
	}
	// Undirected adjacency at span granularity.
	type arc struct {
		to int
		sp span
	}
	adj := make([][]arc, g.n)
	for sp := range spanEdges {
		adj[sp.a] = append(adj[sp.a], arc{to: sp.b, sp: sp})
		adj[sp.b] = append(adj[sp.b], arc{to: sp.a, sp: sp})
	}

	// Iterative Tarjan bridge finding (low-link over DFS tree), tracking
	// the span used to enter each vertex so parallel spans between the same
	// endpoints are handled (a second span to the parent is a back edge).
	disc := make([]int, g.n)
	low := make([]int, g.n)
	for i := range disc {
		disc[i] = -1
	}
	timer := 0
	var bridges []int

	type frame struct {
		v      int
		parent span
		ai     int // next adjacency index to visit
	}
	for root := 0; root < g.n; root++ {
		if disc[root] != -1 {
			continue
		}
		disc[root] = timer
		low[root] = timer
		timer++
		stack := []frame{{v: root, parent: span{-1, -1}}}
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.ai < len(adj[f.v]) {
				a := adj[f.v][f.ai]
				f.ai++
				if a.sp == f.parent {
					continue // the tree edge itself (same span), not a back edge
				}
				if disc[a.to] == -1 {
					disc[a.to] = timer
					low[a.to] = timer
					timer++
					stack = append(stack, frame{v: a.to, parent: a.sp})
				} else if disc[a.to] < low[f.v] {
					low[f.v] = disc[a.to]
				}
				continue
			}
			// Post-order: propagate low-link to the parent and test the
			// entering span.
			stack = stack[:len(stack)-1]
			if len(stack) == 0 {
				continue
			}
			p := &stack[len(stack)-1]
			if low[f.v] < low[p.v] {
				low[p.v] = low[f.v]
			}
			if low[f.v] > disc[p.v] {
				bridges = append(bridges, spanEdges[f.parent]...)
			}
		}
	}
	return bridges
}
