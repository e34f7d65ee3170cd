package disjoint

import (
	"math"

	"repro/internal/graph"
	"repro/internal/obs"
)

// Workspace owns all scratch state of a Suurballe computation — the two
// Dijkstra workspaces, the residual (reduced-cost) graph, and the
// combine-phase buffers — and of a Feasible test, so the per-request hot
// path performs no heap allocations once the buffers have warmed up to the
// graph size.
//
// The zero value is ready to use. A Workspace is not safe for concurrent
// use; give each goroutine its own. The *Pair returned by Suurballe aliases
// workspace buffers and stays valid only until the next call on the same
// workspace; callers that retain it across calls must copy the path slices.
type Workspace struct {
	d1, d2 graph.Workspace
	res    graph.Graph // residual graph, rebuilt in place each call

	p1 []int // first-pass shortest path (original edge IDs)
	q  []int // second-pass path (residual edge IDs)

	onP1 []bool // per original edge; cleared after each use

	// combine scratch.
	mark     []int32 // per original edge: multiplicity in the surviving set
	touched  []int   // edges whose mark entry must be zeroed afterwards
	adjHead  []int32 // per vertex: head of the out-edge chain, stamped
	adjNext  []int32 // per edge: next edge in its vertex's chain
	adjStamp []uint32
	adjGen   uint32

	path1, path2 []int
	pair         Pair

	// Feasible scratch, all stamped with fgen so a call never clears them.
	seen   []uint32 // per vertex: the current BFS pass has reached it
	tree   []int32  // per vertex: edge the first pass reached it by
	onPath []uint32 // per vertex: lies on the first pass's path (s excluded)
	flow   []uint32 // per edge: carries the first pass's unit of flow
	queue  []int32
	fgen   uint32

	// Trace, when non-nil, receives a "suurballe" span per Suurballe call
	// with the search-effort attributes (relaxations, heap operations, path
	// lengths), and a "feasible" span per Feasible call.
	// All obs calls are nil-safe, so leaving it nil costs nothing.
	Trace *obs.Trace
}

// NewWorkspace returns an empty workspace. Equivalent to &Workspace{}.
func NewWorkspace() *Workspace { return &Workspace{} }

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
	instr.calls.Inc()
	defer instr.time.Stop(instr.time.Start())
	sp := ws.Trace.Begin("suurballe")
	// Pass 1: shortest-path distances for the potentials.
	g.DijkstraInto(&ws.d1, s)
	instr.relaxations.Add(ws.d1.Relaxations())
	instr.heapOps.Add(ws.d1.HeapOps())
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

	// Transformed graph with reduced costs w'(u,v) = w + d(u) − d(v) ≥ 0.
	// P1's forward edges are removed and replaced by zero-weight reversals
	// (their reduced cost is 0, so the reversal is also 0).
	m := g.M()
	h := &ws.res
	h.Reset(g.N())
	for cap(ws.onP1) < m {
		ws.onP1 = append(ws.onP1[:cap(ws.onP1)], false)
	}
	onP1 := ws.onP1[:m]
	for _, id := range ws.p1 {
		onP1[id] = true
	}
	for id := 0; id < m; id++ {
		if g.Disabled(id) || onP1[id] {
			continue
		}
		e := g.Edge(id)
		if !ws.d1.Reached(e.From) || !ws.d1.Reached(e.To) {
			continue // unreachable region cannot be on any s→t path
		}
		rc := e.Weight + ws.d1.Dist(e.From) - ws.d1.Dist(e.To)
		if rc < 0 {
			rc = 0 // guard tiny negative from float round-off
		}
		h.AddEdgeAux(e.From, e.To, rc, id)
	}
	for _, id := range ws.p1 {
		e := g.Edge(id)
		h.AddEdgeAux(e.To, e.From, 0, ^id) // reversal carries ^origID
		onP1[id] = false                   // restore the cleared invariant
	}

	h.DijkstraInto(&ws.d2, s)
	instr.relaxations.Add(ws.d2.Relaxations())
	instr.heapOps.Add(ws.d2.HeapOps())
	ws.Trace.SpanInt(sp, "relax2", int64(ws.d2.Relaxations()))
	ws.Trace.SpanInt(sp, "heap2", int64(ws.d2.HeapOps()))
	if !ws.d2.Reached(t) {
		ws.Trace.SpanBool(sp, "found", false)
		ws.Trace.EndSpan(sp)
		return nil, false
	}
	ws.q, ok = ws.d2.AppendPathTo(ws.q[:0], t, h)
	if !ok {
		ws.Trace.SpanBool(sp, "found", false)
		ws.Trace.EndSpan(sp)
		return nil, false
	}

	pair, ok := ws.combine(g, s, t)
	if ok {
		instr.found.Inc()
		ws.Trace.SpanInt(sp, "len1", int64(len(pair.Path1)))
		ws.Trace.SpanInt(sp, "len2", int64(len(pair.Path2)))
		ws.Trace.SpanFloat(sp, "weight", pair.Weight)
	}
	ws.Trace.SpanBool(sp, "found", ok)
	ws.Trace.EndSpan(sp)
	return pair, ok
}

// Feasible reports whether two edge-disjoint s→t paths exist over the
// enabled edges of g, that is, whether the unit-capacity s→t max flow is at
// least 2. It runs two BFS augmentations: a fewest-hop path P, then a search
// of the residual graph, where P's edges run backwards. With finite,
// non-negative weights and no zero-weight cycle, Suurballe succeeds on g
// exactly when Feasible does, so a search that needs only the yes/no answer
// (the MinCog threshold rounds) skips the two Dijkstra passes, the residual
// graph build and the path decomposition. Warm calls do not allocate.
//
//wdm:hotpath
func (ws *Workspace) Feasible(g *graph.Graph, s, t int) bool {
	if s == t {
		return false
	}
	sp := ws.Trace.Begin("feasible")
	ok := ws.feasible(g, s, t)
	ws.Trace.SpanBool(sp, "found", ok)
	ws.Trace.EndSpan(sp)
	return ok
}

func (ws *Workspace) feasible(g *graph.Graph, s, t int) bool {
	n, m := g.N(), g.M()
	if len(ws.seen) < n {
		grow := n - len(ws.seen)
		ws.seen = append(ws.seen, make([]uint32, grow)...)
		ws.tree = append(ws.tree, make([]int32, grow)...)
		ws.onPath = append(ws.onPath, make([]uint32, grow)...)
		ws.queue = append(ws.queue, make([]int32, grow)...)
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
	pass1, pass2 := ws.fgen-1, ws.fgen
	seen, tree, onPath, flow, queue := ws.seen[:n], ws.tree[:n], ws.onPath[:n], ws.flow[:m], ws.queue[:n]

	// Pass 1: BFS over the enabled edges. Each vertex is queued at most
	// once, so the queue never outgrows n.
	seen[s] = pass1
	queue[0] = int32(s)
	head, tail := 0, 1
	found := false
	for head < tail && !found {
		u := int(queue[head])
		head++
		for _, id := range g.Out(u) {
			if g.Disabled(id) {
				continue
			}
			v := g.Edge(id).To
			if seen[v] == pass1 {
				continue
			}
			seen[v], tree[v] = pass1, int32(id)
			if v == t {
				found = true
				break
			}
			queue[tail] = int32(v)
			tail++
		}
	}
	if !found {
		return false
	}
	// Push one unit along P: its edges lose their forward residual
	// capacity, and each of its vertices but s gains a reversal back along
	// the edge that entered it.
	for v := t; v != s; {
		id := int(tree[v])
		flow[id] = pass1
		onPath[v] = pass1
		v = g.Edge(id).From
	}

	// Pass 2: BFS over the residual graph.
	seen[s] = pass2
	queue[0] = int32(s)
	head, tail = 0, 1
	for head < tail {
		u := int(queue[head])
		head++
		for _, id := range g.Out(u) {
			if g.Disabled(id) || flow[id] == pass1 {
				continue
			}
			v := g.Edge(id).To
			if v == t {
				return true
			}
			if seen[v] != pass2 {
				seen[v] = pass2
				queue[tail] = int32(v)
				tail++
			}
		}
		if onPath[u] == pass1 {
			if v := g.Edge(int(tree[u])).From; seen[v] != pass2 {
				seen[v] = pass2
				queue[tail] = int32(v)
				tail++
			}
		}
	}
	return false
}

// combine cancels interlacing edges between P1 and the second-pass path Q
// (edges of Q with Aux = ^origID are reversals of P1 edges) and decomposes
// the remaining edge multiset into two edge-disjoint s→t paths. It mirrors
// the map-based combine exactly — the surviving edges are scanned in
// ascending ID order and each per-vertex chain pops its largest ID first —
// so the decomposition (and which path is reported first) is identical.
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
	for _, hid := range ws.q {
		aux := ws.res.Edge(hid).Aux
		if aux < 0 {
			mark[^aux]-- // reversal cancels the P1 edge
		} else {
			add(aux)
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
