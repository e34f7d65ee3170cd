package graph

import (
	"fmt"

	"repro/internal/pq"
)

// Workspace owns the per-call scratch state of a shortest-path computation —
// distance and predecessor arrays plus the indexed heap — so repeated
// searches reuse one allocation. Stale entries are invalidated by a
// generation counter instead of an O(n) clear: dist[v]/prevEdge[v] are
// meaningful only while stamp[v] equals the current generation, so beginning
// a new search costs O(1) (plus an amortised array growth when the graph is
// larger than any seen before).
//
// The zero value is ready to use. A Workspace is not safe for concurrent
// use; give each goroutine its own.
type Workspace struct {
	noCopy noCopy

	dist     []float64
	prevEdge []int
	stamp    []uint32
	gen      uint32
	heap     pq.IndexedHeap

	src int
	n   int

	// revIn[v] is the first-pass path edge entering v during
	// ResidualDijkstraInto, and -1 otherwise.
	revIn []int

	// Search-effort counters for the last search: the measured constants
	// behind the paper's m log n term.
	relaxations int64
	heapOps     int64
}

// begin prepares the workspace for a search over n vertices: grows the
// arrays, empties the heap, and advances the generation so every previous
// entry reads as unvisited.
func (ws *Workspace) begin(n int) {
	ws.n = n
	for len(ws.dist) < n {
		ws.dist = append(ws.dist, 0)
		ws.prevEdge = append(ws.prevEdge, -1)
		ws.stamp = append(ws.stamp, 0)
	}
	ws.heap.Grow(n)
	ws.heap.Reset()
	ws.gen++
	if ws.gen == 0 { // wrapped: stale stamps could collide, clear them
		for i := range ws.stamp {
			ws.stamp[i] = 0
		}
		ws.gen = 1
	}
	ws.relaxations = 0
	ws.heapOps = 0
}

// visit records the tentative distance and tree edge of v.
func (ws *Workspace) visit(v int, d float64, edge int) {
	ws.dist[v] = d
	ws.prevEdge[v] = edge
	ws.stamp[v] = ws.gen
}

// Source returns the source vertex of the last search.
func (ws *Workspace) Source() int { return ws.src }

// Dist returns the shortest distance from the source to v, or Inf when v was
// not reached by the last search.
func (ws *Workspace) Dist(v int) float64 {
	if ws.stamp[v] != ws.gen {
		return Inf
	}
	return ws.dist[v]
}

// Reached reports whether v was reached by the last search.
func (ws *Workspace) Reached(v int) bool { return ws.stamp[v] == ws.gen }

// PrevEdge returns the tree edge used to reach v, or -1 at the source or
// when v was not reached.
func (ws *Workspace) PrevEdge(v int) int {
	if ws.stamp[v] != ws.gen {
		return -1
	}
	return ws.prevEdge[v]
}

// Relaxations returns the number of edge relaxation attempts (enabled edges
// scanned) of the last search.
func (ws *Workspace) Relaxations() int64 { return ws.relaxations }

// HeapOps returns the number of heap pushes, decreases and pops of the last
// search.
func (ws *Workspace) HeapOps() int64 { return ws.heapOps }

// AppendPathTo appends the edge-ID path from the source to v onto buf and
// returns the extended slice, or (buf unchanged, false) when v is
// unreachable. Passing buf[:0] of a retained slice makes path extraction
// allocation-free once the buffer has warmed up. After ResidualDijkstraInto
// a step over the reversal of edge id appends ReversalEdge(id).
func (ws *Workspace) AppendPathTo(buf []int, v int, g *Graph) ([]int, bool) {
	if !ws.Reached(v) {
		return buf, false
	}
	start := len(buf)
	for v != ws.src {
		e := ws.prevEdge[v]
		//wdmlint:ignore hotalloc appends into the caller's reusable path buffer; amortizes to zero
		buf = append(buf, e)
		switch {
		case e >= 0:
			v = g.edges[e].From
		case e != -1:
			v = g.edges[ReversalEdge(e)].To // a reversal runs To → From
		default:
			return buf[:start], false // defensive: broken tree
		}
	}
	// Reverse the appended segment in place.
	for i, j := start, len(buf)-1; i < j; i, j = i+1, j-1 {
		buf[i], buf[j] = buf[j], buf[i]
	}
	return buf, true
}

// DijkstraInto computes single-source shortest paths from src over enabled
// edges using ws for all scratch state. After the workspace has warmed up to
// the graph size the search performs no heap allocations. Results are read
// through the workspace accessors (Dist, Reached, AppendPathTo, …) and stay
// valid until the next search on the same workspace. All enabled edge
// weights must be non-negative; it panics otherwise.
//
//wdm:hotpath
func (g *Graph) DijkstraInto(ws *Workspace, src int) {
	ws.begin(g.n)
	ws.src = src
	ws.visit(src, 0, -1)
	h := &ws.heap
	h.Push(src, 0)
	ws.heapOps++
	for !h.Empty() {
		u, du := h.Pop()
		ws.heapOps++
		if du > ws.dist[u] {
			continue
		}
		for _, id := range g.out[u] {
			if g.disabled[id] {
				continue
			}
			e := &g.edges[id]
			if e.Weight < 0 {
				//wdmlint:ignore hotalloc panic-path formatting; unreachable in a correct run
				panic(fmt.Sprintf("graph: Dijkstra on negative edge %d (weight %g)", id, e.Weight))
			}
			if nd := du + e.Weight; ws.relax(e.To, nd, id) {
				h.PushOrDecrease(e.To, nd)
			}
		}
	}
}

// ResidualDijkstraInto is the second pass of Suurballe's algorithm: it runs
// DijkstraInto from src over the residual graph of g with respect to the
// first pass, without building that graph. pot, a workspace other than ws,
// holds the first pass, a DijkstraInto search of g from the same src, and
// p1 its shortest path (edge IDs of g from src to some t, as AppendPathTo
// returns it).
//
// The residual graph keeps every enabled edge of g that is not on p1, at
// the reduced cost w + d1(u) − d1(v), clamped at 0 against round-off, and
// adds, for each p1 edge, its zero-weight reversal. Edges pot did not reach
// lie outside every s→t path and are never scanned: pot reached the head of
// every enabled edge whose tail it reached. A vertex's residual out-edges
// are its forward edges in ascending ID, then the reversal of the p1 edge
// that enters it, so the search makes the relaxations, in the same order,
// that DijkstraInto would make on the graph built explicitly edge by edge
// in that order. A vertex reached over the reversal of edge id records
// ReversalEdge(id) as its tree edge.
//
//wdm:hotpath
func (g *Graph) ResidualDijkstraInto(ws, pot *Workspace, p1 []int, src int) {
	ws.begin(g.n)
	for len(ws.revIn) < g.n {
		ws.revIn = append(ws.revIn, -1)
	}
	// revIn[v] is the p1 edge entering v. p1 is a simple path, so each of
	// its vertices but src has exactly one, and edge id is on p1 exactly
	// when revIn[To(id)] == id.
	revIn := ws.revIn
	for _, id := range p1 {
		revIn[g.edges[id].To] = id
	}
	ws.src = src
	ws.visit(src, 0, -1)
	h := &ws.heap
	h.Push(src, 0)
	ws.heapOps++
	for !h.Empty() {
		u, du := h.Pop()
		ws.heapOps++
		if du > ws.dist[u] {
			continue
		}
		// pot searched all of g from src, so it reached u and the head of
		// every enabled edge out of u: their potentials are set.
		pu := pot.dist[u]
		for _, id := range g.out[u] {
			if g.disabled[id] {
				continue
			}
			e := &g.edges[id]
			to := e.To
			if revIn[to] == id {
				continue
			}
			rc := e.Weight + pu - pot.dist[to]
			if rc < 0 {
				rc = 0 // guard tiny negative from float round-off
			}
			if nd := du + rc; ws.relax(to, nd, id) {
				h.PushOrDecrease(to, nd)
			}
		}
		// The zero-weight reversal: du + 0 is du, which is never −0.
		if id := revIn[u]; id >= 0 {
			if v := g.edges[id].From; ws.relax(v, du, ReversalEdge(id)) {
				h.PushOrDecrease(v, du)
			}
		}
	}
	for _, id := range p1 {
		revIn[g.edges[id].To] = -1
	}
}

// ReversalEdge is the tree edge ResidualDijkstraInto records for a vertex
// reached over the reversal of edge id: −(id+2), which is negative and never
// the −1 of the source or of an unreached vertex. It is its own inverse, so
// ReversalEdge(code) gives back id.
func ReversalEdge(id int) int { return -id - 2 }

// relax offers v the tentative distance nd over tree edge id and reports
// whether it improved v, in which case the caller must PushOrDecrease v at
// nd (a vertex not reached before is not in the heap, so that pushes it);
// the heap operation is already counted. It is the one relaxation step
// DijkstraInto and ResidualDijkstraInto share, small enough to inline.
func (ws *Workspace) relax(v int, nd float64, id int) bool {
	ws.relaxations++
	if ws.stamp[v] == ws.gen && !(nd < ws.dist[v]) {
		return false
	}
	ws.visit(v, nd, id)
	ws.heapOps++
	return true
}

// noCopy makes go vet's copylocks check report every copy of a type that
// holds it by value: a copied workspace forks its generation-stamped arrays
// and heap, and the copy and the original then search on stale scratch.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}
