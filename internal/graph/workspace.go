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

	// Search-effort counters for the last search: the measured constants
	// behind the paper's m log n term.
	relaxations int64
	heapOps     int64
}

// NewWorkspace returns an empty workspace. Equivalent to &Workspace{}; it
// exists for symmetry with the other constructors.
func NewWorkspace() *Workspace { return &Workspace{} }

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
// allocation-free once the buffer has warmed up.
func (ws *Workspace) AppendPathTo(buf []int, v int, g *Graph) ([]int, bool) {
	if !ws.Reached(v) {
		return buf, false
	}
	start := len(buf)
	for v != ws.src {
		e := ws.prevEdge[v]
		if e < 0 {
			return buf[:start], false // defensive: broken tree
		}
		//wdmlint:ignore hotalloc appends into the caller's reusable path buffer; amortizes to zero
		buf = append(buf, e)
		v = g.Edge(e).From
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
			ws.relaxations++
			nd := du + e.Weight
			to := e.To
			if ws.stamp[to] != ws.gen {
				ws.visit(to, nd, id)
				h.Push(to, nd)
				ws.heapOps++
			} else if nd < ws.dist[to] {
				ws.dist[to] = nd
				ws.prevEdge[to] = id
				h.PushOrDecrease(to, nd)
				ws.heapOps++
			}
		}
	}
}

// noCopy makes go vet's copylocks check report every copy of a type that
// holds it by value: a copied workspace forks its generation-stamped arrays
// and heap, and the copy and the original then search on stale scratch.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}
