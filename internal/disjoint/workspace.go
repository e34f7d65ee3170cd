package disjoint

import (
	"math"

	"repro/internal/graph"
	"repro/internal/obs"
)

// Workspace owns all scratch state of a Suurballe computation — the two
// Dijkstra workspaces (the second walks the residual graph in place, see
// graph.ResidualDijkstraInto), the two passes' paths and the combine-phase
// buffers — and of the incremental two-path flow search (StartFlow,
// ExtendFlow), so the per-request hot path performs no heap allocations
// once the buffers have warmed up to the graph size.
//
// The zero value is ready to use. A Workspace is not safe for concurrent
// use; give each goroutine its own. The *Pair returned by Suurballe aliases
// workspace buffers and stays valid only until the next call on the same
// workspace; callers that retain it across calls must copy the path slices.
type Workspace struct {
	d1, d2 graph.Workspace

	p1 []int // first-pass shortest path (edge IDs)
	q  []int // second-pass path: edge IDs and graph.ReversalEdge codes

	// combine scratch.
	mark     []int32 // per original edge: multiplicity in the surviving set
	touched  []int   // edges whose mark entry must be zeroed afterwards
	adjHead  []int32 // per vertex: head of the out-edge chain, stamped
	adjNext  []int32 // per edge: next edge in its vertex's chain
	adjStamp []uint32
	adjGen   uint32

	path1, path2 []int
	pair         Pair

	// StartFlow/ExtendFlow scratch, all stamped (see phase) so a call never
	// clears them.
	seen   []uint32 // per vertex: the current phase has reached it
	tree   []int32  // per vertex: edge phase 0 reached it by
	onPath []uint32 // per vertex: lies on the first path (s excluded)
	flow   []uint32 // per edge: carries the first path's unit of flow
	stack  []int32  // the current phase's reached vertices not yet scanned
	fgen   uint32
	fg     *graph.Graph
	fs, ft int
	top    int // stack height
	augs   int // augmentations so far: the flow value

	// Trace, when non-nil, receives a "suurballe" span per Suurballe call
	// with the search-effort attributes (relaxations, heap operations, path
	// lengths). All obs calls are nil-safe, so leaving it nil costs nothing.
	Trace *obs.Trace
}

// Suurballe returns a minimum-total-weight pair of edge-disjoint paths from
// s to t over the enabled edges of g, or ok=false if no such pair exists.
// All enabled edge weights must be non-negative. It reuses ws for every
// intermediate structure; the returned Pair aliases workspace buffers (see
// the Workspace doc).
//
//wdm:hotpath
func (ws *Workspace) Suurballe(g *graph.Graph, s, t int) (*Pair, bool) {
	if s == t {
		return nil, false
	}
	sp := ws.Trace.Begin("suurballe")
	// Pass 1: shortest-path distances for the potentials.
	g.DijkstraInto(&ws.d1, s)
	ws.Trace.SpanInt(sp, "relax1", int64(ws.d1.Relaxations()))
	ws.Trace.SpanInt(sp, "heap1", int64(ws.d1.HeapOps()))
	if !ws.d1.Reached(t) {
		ws.Trace.SpanBool(sp, "found", false)
		ws.Trace.EndSpan(sp)
		return nil, false
	}
	var ok bool
	ws.p1, ok = ws.d1.AppendPathTo(ws.p1[:0], t, g)
	if !ok {
		ws.Trace.SpanBool(sp, "found", false)
		ws.Trace.EndSpan(sp)
		return nil, false
	}

	// Pass 2 on the residual graph: reduced costs w + d(u) − d(v) ≥ 0, P1's
	// edges replaced by zero-weight reversals.
	g.ResidualDijkstraInto(&ws.d2, &ws.d1, ws.p1, s)
	ws.Trace.SpanInt(sp, "relax2", int64(ws.d2.Relaxations()))
	ws.Trace.SpanInt(sp, "heap2", int64(ws.d2.HeapOps()))
	if !ws.d2.Reached(t) {
		ws.Trace.SpanBool(sp, "found", false)
		ws.Trace.EndSpan(sp)
		return nil, false
	}
	ws.q, ok = ws.d2.AppendPathTo(ws.q[:0], t, g)
	if !ok {
		ws.Trace.SpanBool(sp, "found", false)
		ws.Trace.EndSpan(sp)
		return nil, false
	}

	pair, ok := ws.combine(g, s, t)
	if ok {
		ws.Trace.SpanInt(sp, "len1", int64(len(pair.Path1)))
		ws.Trace.SpanInt(sp, "len2", int64(len(pair.Path2)))
		ws.Trace.SpanFloat(sp, "weight", pair.Weight)
	}
	ws.Trace.SpanBool(sp, "found", ok)
	ws.Trace.EndSpan(sp)
	return pair, ok
}

// StartFlow begins an incremental search for two edge-disjoint s→t paths
// over the enabled edges of g — a unit-capacity s→t max flow, capped at 2 —
// and returns the flow it reaches over the edges enabled now: 0, 1 or 2.
// ExtendFlow resumes it after the caller enables more edges. A search phase
// only grows its reached set (enabling an edge adds a residual arc and
// removes none), and only an augmentation restarts it, at most twice, so a
// caller that enables a graph's edges in any number of batches pays
// O(n + m) for all of them together. Warm calls do not allocate. With
// finite, non-negative weights and no zero-weight cycle, Suurballe succeeds
// on g exactly when StartFlow returns 2.
//
// Phase 0 is a depth-first search over the enabled edges; reaching t pushes
// one unit along its tree path P. Phase 1 searches the residual graph,
// where P's edges run backwards; reaching t there is the second unit.
//
//wdm:hotpath
func (ws *Workspace) StartFlow(g *graph.Graph, s, t int) int {
	n, m := g.N(), g.M()
	if len(ws.seen) < n {
		grow := n - len(ws.seen)
		ws.seen = append(ws.seen, make([]uint32, grow)...)
		ws.tree = append(ws.tree, make([]int32, grow)...)
		ws.onPath = append(ws.onPath, make([]uint32, grow)...)
		ws.stack = append(ws.stack, make([]int32, grow)...)
	}
	if len(ws.flow) < m {
		ws.flow = append(ws.flow, make([]uint32, m-len(ws.flow))...)
	}
	if ws.fgen >= math.MaxUint32-2 { // stale stamps could collide: clear them
		clear(ws.seen)
		clear(ws.onPath)
		clear(ws.flow)
		ws.fgen = 0
	}
	ws.fgen += 2
	ws.fg, ws.fs, ws.ft, ws.augs = g, s, t, 0
	ws.restart()
	return ws.search(false)
}

// ExtendFlow resumes the search StartFlow began, after the caller enabled
// the edges ids of its graph, and returns the flow reached: 0, 1 or 2.
// Since the last call the caller must have enabled no other edge and
// disabled none.
//
//wdm:hotpath
func (ws *Workspace) ExtendFlow(ids []int) int {
	if ws.augs == 2 {
		return 2
	}
	g, phase := ws.fg, ws.phase()
	for _, id := range ids {
		e := g.Edge(id)
		if ws.seen[e.From] == phase && ws.reach(e.To, id) {
			// An augmentation restarts the phase from s, and the restarted
			// search scans the rest of ids with every other enabled edge.
			return ws.search(true)
		}
	}
	return ws.search(false)
}

// phase is the stamp of the current search phase: fgen-1 before the first
// augmentation, fgen after it. The first path's edges and vertices carry
// fgen-1 in flow and onPath.
func (ws *Workspace) phase() uint32 { return ws.fgen - 1 + uint32(ws.augs) }

// restart begins a search phase from s.
func (ws *Workspace) restart() {
	ws.seen[ws.fs] = ws.phase()
	ws.stack[0] = int32(ws.fs)
	ws.top = 1
}

// reach marks v reached by edge id in the current phase and pushes it. It
// reports whether v is t, which is never pushed.
func (ws *Workspace) reach(v, id int) bool {
	phase := ws.phase()
	if ws.seen[v] == phase {
		return false
	}
	ws.seen[v] = phase
	if ws.augs == 0 {
		ws.tree[v] = int32(id)
	}
	if v == ws.ft {
		return true
	}
	ws.stack[ws.top] = int32(v)
	ws.top++
	return false
}

// search drains the current phase (found: it already reached t) and
// augments each time a phase reaches t, until the flow is 2 or the phase
// runs dry.
func (ws *Workspace) search(found bool) int {
	for ws.augs < 2 && (found || ws.scan()) {
		found = false
		if ws.augs++; ws.augs == 1 {
			// Push one unit along P: its edges lose their forward residual
			// capacity, and each of its vertices but s gains a reversal
			// back along the edge that entered it.
			first := ws.fgen - 1
			for v := ws.ft; v != ws.fs; {
				id := int(ws.tree[v])
				ws.flow[id] = first
				ws.onPath[v] = first
				v = ws.fg.Edge(id).From
			}
			ws.restart()
		}
	}
	return ws.augs
}

// scan runs the current phase's depth-first search over the residual graph
// until it reaches t (true) or its stack empties (false). Each vertex is
// pushed at most once per phase, so the stack never outgrows n.
func (ws *Workspace) scan() bool {
	g, first := ws.fg, ws.fgen-1
	for ws.top > 0 {
		ws.top--
		u := int(ws.stack[ws.top])
		for _, id := range g.Out(u) {
			if !g.Disabled(id) && ws.flow[id] != first && ws.reach(g.Edge(id).To, id) {
				return true
			}
		}
		// The reversal of the first path's edge into u.
		if ws.onPath[u] == first && ws.reach(g.Edge(int(ws.tree[u])).From, -1) {
			return true
		}
	}
	return false
}

// combine cancels interlacing edges between P1 and the second-pass path Q
// (negative entries of Q are graph.ReversalEdge codes of P1 edges) and
// decomposes the remaining edge multiset into two edge-disjoint s→t paths.
// It mirrors the map-based combine exactly — the surviving edges are
// scanned in ascending ID order and each per-vertex chain pops its largest
// ID first — so the decomposition (and which path is reported first) is
// identical.
func (ws *Workspace) combine(g *graph.Graph, s, t int) (*Pair, bool) {
	m := g.M()
	for cap(ws.mark) < m {
		ws.mark = append(ws.mark[:cap(ws.mark)], 0)
	}
	mark := ws.mark[:m]
	ws.touched = ws.touched[:0]
	//wdmlint:ignore hotalloc non-escaping closure; stays on the stack
	add := func(id int) {
		if mark[id] == 0 {
			//wdmlint:ignore hotalloc workspace buffer growth; amortizes to zero once warm
			ws.touched = append(ws.touched, id)
		}
		mark[id]++
	}
	for _, id := range ws.p1 {
		add(id)
	}
	for _, id := range ws.q {
		if id < 0 {
			mark[graph.ReversalEdge(id)]-- // reversal cancels the P1 edge
		} else {
			add(id)
		}
	}
	//wdmlint:ignore hotalloc non-escaping closure; stays on the stack
	defer func() {
		for _, id := range ws.touched {
			mark[id] = 0
		}
	}()

	// Adjacency over surviving edges: ascending-ID prepend per vertex, so
	// the chain head is the largest ID — the edge the map version popped.
	n := g.N()
	for cap(ws.adjHead) < n {
		ws.adjHead = append(ws.adjHead[:cap(ws.adjHead)], -1)
		ws.adjStamp = append(ws.adjStamp[:cap(ws.adjStamp)], 0)
	}
	adjHead, adjStamp := ws.adjHead[:n], ws.adjStamp[:n]
	for cap(ws.adjNext) < m {
		ws.adjNext = append(ws.adjNext[:cap(ws.adjNext)], -1)
	}
	adjNext := ws.adjNext[:m]
	ws.adjGen++
	if ws.adjGen == 0 {
		for i := range adjStamp {
			adjStamp[i] = 0
		}
		ws.adjGen = 1
	}
	gen := ws.adjGen
	total := 0.0
	edgeCount := 0
	for id := 0; id < m; id++ {
		mult := mark[id]
		if mult <= 0 {
			continue
		}
		if mult > 1 {
			return nil, false // defensive: should not happen for simple paths
		}
		e := g.Edge(id)
		if adjStamp[e.From] != gen {
			adjStamp[e.From] = gen
			adjHead[e.From] = -1
		}
		adjNext[id] = adjHead[e.From]
		adjHead[e.From] = int32(id)
		total += e.Weight
		edgeCount++
	}
	//wdmlint:ignore hotalloc non-escaping closure; stays on the stack
	extract := func(buf []int) ([]int, bool) {
		buf = buf[:0]
		at := s
		for at != t {
			if adjStamp[at] != gen || adjHead[at] < 0 {
				return buf, false
			}
			id := int(adjHead[at])
			adjHead[at] = adjNext[id]
			//wdmlint:ignore hotalloc workspace buffer growth; amortizes to zero once warm
			buf = append(buf, id)
			at = g.Edge(id).To
			if len(buf) > edgeCount {
				return buf, false // cycle guard
			}
		}
		return buf, true
	}
	var ok1, ok2 bool
	ws.path1, ok1 = extract(ws.path1)
	ws.path2, ok2 = extract(ws.path2)
	if !ok1 || !ok2 {
		return nil, false
	}
	ws.pair = Pair{Path1: ws.path1, Path2: ws.path2, Weight: total}
	return &ws.pair, true
}
