// Package auxgraph builds the edge-node auxiliary graphs of the paper. All
// three variants share one skeleton — two edge-nodes per physical link
// (u_out^e at the tail, v_in^e at the head), a link edge between them,
// conversion edges v_in^e → v_out^e' inside every node, and the special
// terminals s′ and t″ — and differ only in the link filter and the weight
// assignment:
//
//   - Cost (G′, §3.3.1): link edges weighted by the mean available-wavelength
//     cost Σ_{λ∈Λ_avail(e)} w(e,λ)/|Λ_avail(e)|; conversion edges by the mean
//     conversion cost Σ c_v(λa,λb)/K_v over allowed pairs.
//   - Load (G_c, §4.1): only links with U(e)/N(e) < ϑ survive; link edges get
//     the exponential congestion weight a^{(U(e)+1)/N(e)} − a^{U(e)/N(e)};
//     conversion edges weigh 0.
//   - LoadCost (G_rc, §4.2): the Load filter with cost weights — link edges
//     get Σ_{λ∈Λ_avail(e)} w(e,λ)/N(e), conversion edges the mean conversion
//     cost as in G′.
//
// Because the skeleton depends only on the network's structure (links,
// installed wavelength sets, converters) and never on its residual state,
// construction is split in two: a Skeleton is built once per network with
// NewSharedSkeleton (edge-disjoint routing) or NewNodeDisjointSkeleton, and
// ReweightAt selects a request's terminal pair, flips the Disable bits of
// filtered links and rewrites edge weights in place — so a per-arrival
// router re-uses one skeleton for every pair and variant it tries instead of
// reallocating the graph. A threshold search need not reweight at all:
// BeginAdmit and Admit grow the surviving link set one group at a time,
// touching only enable bits (on the physical graph when every node converts
// fully), so a search can decide feasibility at every threshold in one pass.
//
// Three properties keep the per-request cost flat under dynamic traffic:
//
//   - Every skeleton carries terminal vertices s′_v and t″_v with their
//     terminal edges for every node, all disabled; ReweightAt enables exactly
//     the requested pair's.
//   - Reweighting is incremental: link-edge weights and conversion-pair means
//     are cached per StateVersion and refreshed through the network's
//     per-link change journal (wdm.LinkStamp), so a reservation on one link
//     recomputes only the skeleton edges incident to that link. The cache is
//     sound because, while TopoVersion is unchanged (the ReweightAt
//     precondition), every StateVersion advance stems from an availability
//     mutation that stamps its link's journal entry.
//   - A skeleton outlives its network pointer: Follow moves it, caches and
//     all, onto a later snapshot of the same writer (same lineage and
//     TopoVersion, no older StateVersion), so a router serving a stream of
//     published snapshots builds it once, not once per snapshot.
package auxgraph

import (
	"math"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/wdm"
)

// Kind selects the auxiliary-graph variant.
type Kind int

const (
	// Cost is G′ of §3.3.1.
	Cost Kind = iota
	// Load is G_c of §4.1.
	Load
	// LoadCost is G_rc of §4.2.
	LoadCost
)

func (k Kind) String() string {
	switch k {
	case Cost:
		return "cost"
	case Load:
		return "load"
	case LoadCost:
		return "load-cost"
	}
	return "unknown"
}

// DefaultBase is the default exponent base a for the Load weights. Any a > 1
// realises the paper's heuristic; larger bases penalise loaded links more
// steeply.
const DefaultBase = 10.0

// Params configures ReweightAt.
type Params struct {
	Kind Kind
	// Threshold is ϑ for Load/LoadCost: links with load ≥ ϑ are dropped.
	// Ignored by Cost.
	Threshold float64
	// Base is the exponent base a (> 1) for Load weights; DefaultBase if 0.
	Base float64
	// Trace, when non-nil, receives a "reweight" span per ReweightAt call
	// with the variant, threshold and surviving-link count. Nil costs nothing.
	Trace *obs.Trace
}

// Aux is a built auxiliary graph together with the bookkeeping needed to map
// paths back to the physical network. Links dropped by the current filter
// remain in the graph as vertices with their incident edges disabled; every
// traversal-facing accessor (OutNode, InNode, Dijkstra over G) sees exactly
// the surviving subgraph.
type Aux struct {
	G *graph.Graph
	S int // s′ of the active pair
	T int // t″ of the active pair

	net     *wdm.Network
	outNode []int  // outNode[e] = aux vertex of u_out^e
	inNode  []int  // inNode[e] = aux vertex of v_in^e
	keep    []bool // keep[e] = link e survives the current filter
}

// Skeleton is the reusable edge-node structure of one network. It is built
// once and re-weighted any number of times with ReweightAt, for any terminal
// pair, as long as the network's structure (TopoVersion) is unchanged;
// reservations and releases only change weights and filters, which
// ReweightAt recomputes in place. Follow carries it onto later snapshots of
// the same writer.
//
// A Skeleton is not safe for concurrent use, and the *Aux returned by
// ReweightAt aliases the skeleton: a later ReweightAt rewrites it in place.
type Skeleton struct {
	noCopy noCopy

	aux          Aux
	nodeDisjoint bool
	topoVersion  uint64
	m            int // physical link count at build time

	linkEdge []int // linkEdge[e] = aux edge ID of e's link edge

	// All conversion pairs with their plain conversion edge, grouped by node
	// in construction order. On a node-disjoint skeleton each node's pairs
	// are also the [pairLo, pairHi) range of its hub.
	pairs       []convPair
	pairOK      []bool    // cached avail-feasibility per pair
	pairMean    []float64 // cached mean conversion cost per pair
	pairsByLink [][]int32 // pair indices with ein or eout = link, for journal refresh and Admit
	pairsAt     uint64    // StateVersion the pair cache was computed at
	pairsOK     bool      // pair cache computed at least once

	// Admission pass (BeginAdmit, Admit): phys is the physical graph, edge
	// ID = link ID, a shared skeleton's pass runs on when every node
	// converts fully (nil otherwise), admitPhys marks a pass running on it,
	// and admitted is Admit's result buffer, one slot per aux edge.
	phys      *graph.Graph
	admitPhys bool
	admitted  []int

	// Cached link-edge weights, one cache per variant so algorithms that
	// alternate kinds (MinLoad's G_c, MinLoadCost's G_rc) don't
	// thrash each other. Refreshed per link through the change journal.
	lw [3]weightCache

	hubs   []hubGadget   // node-disjoint only
	spokes []linkEdgeRef // hub spokes, v_in^e → hub_in(v) and hub_out(v) → u_out^e

	// Terminal machinery: per-node terminal vertices and edge groups, plus
	// the currently enabled pair.
	termOut    [][]linkEdgeRef // s′_v → u_out^e, per node
	termIn     [][]linkEdgeRef // v_in^e → t″_v, per node
	termOutOf  []int           // per link e: edge s′_v → u_out^e, v its tail
	termInOf   []int           // per link e: edge v_in^e → t″_v, v its head
	srcVertex  []int           // s′_v per node
	dstVertex  []int           // t″_v per node
	curS, curT int             // terminals currently enabled; -1 before first ReweightAt
}

// weightCache holds one variant's per-link edge weights together with the
// StateVersion they were computed at; links whose journal stamp exceeds that
// version are recomputed on the next ReweightAt, all others are reused.
type weightCache struct {
	ok   bool
	at   uint64
	base float64 // exponent base the Load weights were computed with
	w    []float64
}

type convPair struct {
	edge      int // aux edge ID of the plain conversion edge
	node      int
	ein, eout int
}

type hubGadget struct {
	node             int
	hubEdge          int // aux edge ID of hub_in(v) → hub_out(v)
	pairLo, pairHi   int // this hub's range in Skeleton.pairs
	spokeLo, spokeHi int // this hub's range in Skeleton.spokes
}

type linkEdgeRef struct {
	edge int // aux edge ID
	link int // physical link whose keep bit gates the edge
}

// NewSharedSkeleton builds the skeleton every edge-disjoint request routes
// on: vertices and edges for every physical link, conversion edges for every
// pair feasible under the installed wavelength sets (a superset of every
// residual feasibility), and terminal vertices s′_v and t″_v with their
// terminal edges for every node. All edge weights are unset until the first
// ReweightAt.
func NewSharedSkeleton(net *wdm.Network) *Skeleton {
	return newSkeleton(net, false)
}

// NewNodeDisjointSkeleton builds the skeleton for internally node-disjoint
// routing (protection against single node failures, §1). Besides the plain
// conversion edges, every node that can be traversed gets a unit-capacity
// hub gadget — hub_in(v) → hub_out(v) with spokes from each v_in^e and to
// each u_out^e — and ReweightAt routes the conversions of every node except
// the request's s and t through the hubs, so an edge-disjoint pair on the
// auxiliary graph maps to a node-disjoint pair on the physical network. The
// gadget assumes pairwise conversion feasibility at each node — exact under
// the §3.3 full-conversion assumption; with restricted converters the
// refinement step re-checks feasibility.
func NewNodeDisjointSkeleton(net *wdm.Network) *Skeleton {
	return newSkeleton(net, true)
}

func newSkeleton(net *wdm.Network, nodeDisjoint bool) *Skeleton {
	m := net.Links()
	n := net.Nodes()
	sk := &Skeleton{
		nodeDisjoint: nodeDisjoint,
		topoVersion:  net.TopoVersion(),
		m:            m,
		linkEdge:     make([]int, m),
		termOut:      make([][]linkEdgeRef, n),
		termIn:       make([][]linkEdgeRef, n),
		srcVertex:    make([]int, n),
		dstVertex:    make([]int, n),
		curS:         -1,
		curT:         -1,
	}
	a := &sk.aux
	a.net = net
	a.outNode = make([]int, m)
	a.inNode = make([]int, m)
	a.keep = make([]bool, m)
	a.S, a.T = -1, -1 // set by ReweightAt

	// Vertex layout: for link e, out-node 2e, in-node 2e+1; then one s′/t″
	// pair per node; then one hub in/out pair per node when node-disjoint.
	for id := 0; id < m; id++ {
		a.outNode[id] = 2 * id
		a.inNode[id] = 2*id + 1
	}
	nv := 2 * m
	for v := 0; v < n; v++ {
		sk.srcVertex[v] = nv
		sk.dstVertex[v] = nv + 1
		nv += 2
	}
	hubBase := nv
	if nodeDisjoint {
		nv += 2 * n
	}
	a.G = graph.New(nv)

	// Link edges u_out^e → v_in^e.
	for id := 0; id < m; id++ {
		sk.linkEdge[id] = a.G.AddEdgeAux(a.outNode[id], a.inNode[id], 0, id)
	}

	// Conversion edges inside each node: v_in^e → v_out^e' for every pair
	// with at least one feasible conversion over the installed sets (pairs
	// infeasible even at full availability can never become feasible). A
	// node-disjoint skeleton emits each such node's hub gadget first, then
	// its plain conversion edges; ReweightAt enables one or the other, so
	// the enabled edges keep one fixed relative order whatever the pair.
	for v := 0; v < n; v++ {
		conv := net.Converter(v)
		lo := len(sk.pairs)
		for _, ein := range net.In(v) {
			for _, eout := range net.Out(v) {
				if installedFeasible(net, conv, ein, eout) {
					sk.pairs = append(sk.pairs, convPair{node: v, ein: ein, eout: eout})
				}
			}
		}
		if len(sk.pairs) == lo {
			continue // node can never be traversed
		}
		if nodeDisjoint {
			hubIn, hubOut := hubBase+2*v, hubBase+2*v+1
			hb := hubGadget{node: v, pairLo: lo, pairHi: len(sk.pairs), spokeLo: len(sk.spokes)}
			hb.hubEdge = a.G.AddEdgeAux(hubIn, hubOut, 0, -1)
			for _, ein := range net.In(v) {
				e := a.G.AddEdgeAux(a.inNode[ein], hubIn, 0, -1)
				sk.spokes = append(sk.spokes, linkEdgeRef{edge: e, link: ein})
			}
			for _, eout := range net.Out(v) {
				e := a.G.AddEdgeAux(hubOut, a.outNode[eout], 0, -1)
				sk.spokes = append(sk.spokes, linkEdgeRef{edge: e, link: eout})
			}
			hb.spokeHi = len(sk.spokes)
			sk.hubs = append(sk.hubs, hb)
		}
		for i := lo; i < len(sk.pairs); i++ {
			cp := &sk.pairs[i]
			cp.edge = a.G.AddEdgeAux(a.inNode[cp.ein], a.outNode[cp.eout], 0, -1)
		}
	}
	sk.pairOK = make([]bool, len(sk.pairs))
	sk.pairMean = make([]float64, len(sk.pairs))
	sk.pairsByLink = make([][]int32, m)
	for i, cp := range sk.pairs {
		sk.pairsByLink[cp.ein] = append(sk.pairsByLink[cp.ein], int32(i))
		if cp.eout != cp.ein {
			sk.pairsByLink[cp.eout] = append(sk.pairsByLink[cp.eout], int32(i))
		}
	}

	// Terminals, last: every node's terminal edges, disabled until a
	// ReweightAt selects the pair.
	sk.termOutOf = make([]int, m)
	sk.termInOf = make([]int, m)
	for v := 0; v < n; v++ {
		for _, e1 := range net.Out(v) {
			e := a.G.AddEdgeAux(sk.srcVertex[v], a.outNode[e1], 0, -1)
			a.G.Disable(e)
			sk.termOut[v] = append(sk.termOut[v], linkEdgeRef{edge: e, link: e1})
			sk.termOutOf[e1] = e
		}
		for _, e2 := range net.In(v) {
			e := a.G.AddEdgeAux(a.inNode[e2], sk.dstVertex[v], 0, -1)
			a.G.Disable(e)
			sk.termIn[v] = append(sk.termIn[v], linkEdgeRef{edge: e, link: e2})
			sk.termInOf[e2] = e
		}
	}
	if !nodeDisjoint { // the admission pass runs on shared skeletons only
		sk.admitted = make([]int, a.G.M())
		if allFullConversion(net) {
			sk.phys = graph.New(n)
			for id := 0; id < m; id++ {
				l := net.Link(id)
				sk.phys.AddEdge(l.From, l.To, 0)
			}
		}
	}
	return sk
}

// Valid reports whether the network's structure is unchanged since the
// skeleton was built — the condition under which ReweightAt is allowed.
// Reservations and releases do not invalidate a skeleton.
func (sk *Skeleton) Valid() bool { return sk.aux.net.TopoVersion() == sk.topoVersion }

// Follow moves the skeleton onto net, a later state of the network it serves
// — typically the next published snapshot of the same writer — and reports
// whether it did. It accepts net only when all three hold:
//
//   - net is of the skeleton's network's lineage (wdm.Network.SameLineage),
//     so StateVersions and LinkStamps of the two are comparable;
//   - net's TopoVersion is the one the skeleton was built at, so within the
//     lineage the structure is the same;
//   - net's StateVersion is at least every version the weight and pair
//     caches were computed at, so the journal refresh in ReweightAt
//     (recompute the links stamped after the cache) reaches every link that
//     changed in between.
//
// On false the skeleton is unchanged and the caller builds a new one for
// net. Routing a given network state on a followed skeleton is
// bit-identical to routing it on a fresh one.
func (sk *Skeleton) Follow(net *wdm.Network) bool {
	if !sk.aux.net.SameLineage(net) || net.TopoVersion() != sk.topoVersion {
		return false
	}
	sv := net.StateVersion()
	for _, wc := range sk.lw {
		if wc.ok && wc.at > sv {
			return false
		}
	}
	if sk.pairsOK && sk.pairsAt > sv {
		return false
	}
	sk.aux.net = net
	return true
}

// ReweightAt selects (s, t) as the active terminal pair and recomputes the
// surviving-link filter and every edge weight in place from the network's
// current residual state, returning the aux-graph view. No vertices or edges
// are added or removed: the previous pair's terminal edges, dropped links
// and infeasible conversions are Disabled, everything else Enabled with its
// variant weight; on a node-disjoint skeleton the plain conversions of s and
// t and the hubs of every other node are enabled. The availability-dependent
// link weights and conversion means are cached per StateVersion and
// refreshed incrementally through the network's change journal — a
// reservation on one link recomputes only that link's weight and the
// conversion pairs incident to it, and a reweight that changes only ϑ pays
// just the O(m + conv-edges) filter pass. It panics on an invalid s/t, when
// the network structure changed since the skeleton was built (see Valid), or
// on an invalid Base.
//
//wdm:hotpath
func (sk *Skeleton) ReweightAt(s, t int, p Params) *Aux {
	sk.checkPair(s, t)
	net := sk.aux.net
	base := p.Base
	if base == 0 {
		base = DefaultBase
	}
	if base <= 1 {
		panic("auxgraph: exponent base must exceed 1")
	}
	sp := p.Trace.Begin("reweight")

	g := sk.aux.G
	sk.selectPair(s, t)
	keep := sk.aux.keep
	sv := net.StateVersion()

	// Refresh this variant's cached link-edge weights: recompute every link
	// on the first use (or when the Load base moves), only journal-dirty
	// links afterwards.
	wc := &sk.lw[p.Kind]
	if wc.w == nil {
		//wdmlint:ignore hotalloc one-time lazy initialization of the per-variant weight cache
		wc.w = make([]float64, sk.m)
	}
	full := !wc.ok || (p.Kind == Load && wc.base != base)
	if full || wc.at != sv {
		for id := 0; id < sk.m; id++ {
			if !full && net.LinkStamp(id) <= wc.at {
				continue
			}
			wc.w[id] = linkWeight(net.Link(id), p.Kind, base)
		}
		wc.ok, wc.at, wc.base = true, sv, base
	}

	// Link filter + link-edge weights.
	for id := 0; id < sk.m; id++ {
		l := net.Link(id)
		k := l.U() < l.N() // a free channel, read from the link's counters
		if k && (p.Kind == Load || p.Kind == LoadCost) && l.Load() >= p.Threshold {
			k = false
		}
		keep[id] = k
		eid := sk.linkEdge[id]
		if !k {
			g.Disable(eid)
			g.SetWeight(eid, 0)
			continue
		}
		g.Enable(eid)
		g.SetWeight(eid, wc.w[id])
	}

	sk.refreshPairs()
	costed := p.Kind == Cost || p.Kind == LoadCost
	for i, cp := range sk.pairs {
		if keep[cp.ein] && keep[cp.eout] && sk.pairOK[i] {
			g.Enable(cp.edge)
			if costed {
				g.SetWeight(cp.edge, sk.pairMean[i])
			} else {
				g.SetWeight(cp.edge, 0)
			}
		} else {
			g.Disable(cp.edge)
			g.SetWeight(cp.edge, 0)
		}
	}

	// On a node-disjoint skeleton only the terminals convert directly: every
	// other node's pairs are folded into its hub edge, and their plain edges
	// switched off.
	for _, hb := range sk.hubs {
		sum, cnt := 0.0, 0
		hubbed := hb.node != s && hb.node != t
		for i := hb.pairLo; i < hb.pairHi && hubbed; i++ {
			cp := sk.pairs[i]
			g.Disable(cp.edge)
			g.SetWeight(cp.edge, 0)
			if keep[cp.ein] && keep[cp.eout] && sk.pairOK[i] {
				sum += sk.pairMean[i]
				cnt++
			}
		}
		gate(g, sk.spokes[hb.spokeLo:hb.spokeHi], keep, hubbed)
		if cnt == 0 {
			g.Disable(hb.hubEdge)
			g.SetWeight(hb.hubEdge, 0)
			continue
		}
		g.Enable(hb.hubEdge)
		if costed {
			g.SetWeight(hb.hubEdge, sum/float64(cnt))
		} else {
			g.SetWeight(hb.hubEdge, 0)
		}
	}
	gate(g, sk.termOut[s], keep, true)
	gate(g, sk.termIn[t], keep, true)

	if p.Trace != nil {
		kept := 0
		for id := 0; id < sk.m; id++ {
			if keep[id] {
				kept++
			}
		}
		p.Trace.SpanStr(sp, "kind", p.Kind.String())
		if p.Kind == Load || p.Kind == LoadCost {
			p.Trace.SpanFloat(sp, "threshold", p.Threshold)
		}
		p.Trace.SpanInt(sp, "kept_links", int64(kept))
		p.Trace.EndSpan(sp)
	}
	return &sk.aux
}

// checkPair panics unless (s, t) are nodes of the network and its structure
// is the one the skeleton was built for.
func (sk *Skeleton) checkPair(s, t int) {
	net := sk.aux.net
	if s < 0 || s >= net.Nodes() || t < 0 || t >= net.Nodes() {
		panic("auxgraph: source/destination out of range")
	}
	if !sk.Valid() {
		panic("auxgraph: network structure changed since skeleton build; build a new skeleton")
	}
}

// selectPair makes (s, t) the active terminal pair: it disables the
// terminal edges of the previous pair that (s, t) does not share, so only
// termOut[s] and termIn[t] can be enabled afterwards.
func (sk *Skeleton) selectPair(s, t int) {
	g := sk.aux.G
	if sk.curS != s && sk.curS >= 0 {
		for _, r := range sk.termOut[sk.curS] {
			g.Disable(r.edge)
		}
	}
	if sk.curT != t && sk.curT >= 0 {
		for _, r := range sk.termIn[sk.curT] {
			g.Disable(r.edge)
		}
	}
	sk.curS, sk.curT = s, t
	sk.aux.S = sk.srcVertex[s]
	sk.aux.T = sk.dstVertex[t]
}

// refreshPairs brings the availability-dependent conversion-pair cache
// (pairOK, pairMean) up to the network's StateVersion: a full scan on first
// use, then only the pairs incident to journal-dirty links.
func (sk *Skeleton) refreshPairs() {
	net := sk.aux.net
	sv := net.StateVersion()
	if !sk.pairsOK {
		for i, cp := range sk.pairs {
			sk.pairOK[i], sk.pairMean[i] = meanConvCost(net, net.Converter(cp.node), cp.ein, cp.eout)
		}
		sk.pairsAt = sv
		sk.pairsOK = true
	} else if sk.pairsAt != sv {
		for id := 0; id < sk.m; id++ {
			if net.LinkStamp(id) <= sk.pairsAt {
				continue
			}
			for _, i := range sk.pairsByLink[id] {
				cp := sk.pairs[i]
				if other := cp.ein + cp.eout - id; other < id && net.LinkStamp(other) > sk.pairsAt {
					continue // refreshed from the other link already
				}
				sk.pairOK[i], sk.pairMean[i] = meanConvCost(net, net.Converter(cp.node), cp.ein, cp.eout)
			}
		}
		sk.pairsAt = sv
	}
}

// BeginAdmit starts an admission pass over a shared skeleton for the
// terminal pair (s, t) and returns the graph the pass runs on with its
// source and sink. All of that graph's edges start disabled, so no link
// survives; Admit then lets links in, a group at a time. After any prefix
// of admissions, the graph admits two edge-disjoint source→sink paths
// exactly when G_c for (s, t) with the admitted links as the surviving set
// does, so a search that grows the surviving set in some order — the MinCog
// bottleneck pass admits links in increasing load — decides every
// intermediate graph without reweighting any. The graph is one of two:
//
//   - When every node converts fully and s ≠ t, the physical graph: one
//     vertex per node, one edge per link, from s to t. Every pair of
//     admitted links then converts (both have an available wavelength), so
//     each node's conversion edges form a complete bipartite graph between
//     its admitted in- and out-links; each v_in^e has one in-edge and each
//     u_out^e one out-edge, both e's link edge, so collapsing a node's
//     edge-nodes into the node keeps the s′→t″ max flow. The aux graph is
//     not touched.
//   - Otherwise the skeleton's own graph from s′ to t″: BeginAdmit selects
//     the pair, brings the conversion-pair cache up to date and disables
//     every edge, and the enabled edges after any prefix of admissions are
//     exactly those ReweightAt would enable for (s, t) with the admitted
//     links surviving. Edge weights are left as they are.
//
// Either way the next ReweightAt rewrites every enable bit and weight it
// reads, and is bit-identical to one on a fresh skeleton. BeginAdmit panics
// on a node-disjoint skeleton and on the conditions ReweightAt panics on.
//
//wdm:hotpath
func (sk *Skeleton) BeginAdmit(s, t int) (g *graph.Graph, src, dst int) {
	if sk.nodeDisjoint {
		panic("auxgraph: admission pass on a node-disjoint skeleton")
	}
	sk.checkPair(s, t)
	if sk.admitPhys = sk.phys != nil && s != t; sk.admitPhys {
		sk.phys.DisableAll()
		return sk.phys, s, t
	}
	sk.selectPair(s, t)
	sk.refreshPairs()
	clear(sk.aux.keep)
	sk.aux.G.DisableAll()
	return sk.aux.G, sk.aux.S, sk.aux.T
}

// Admit lets the links of one group survive in the pass BeginAdmit
// started, enabling their edges in the pass graph, and returns the edges it
// enabled; the slice may alias links or a buffer the next Admit reuses. On
// the physical graph a link's edge is the link. On the aux graph Admit
// enables, for each link, its link edge, each conversion edge between it
// and an admitted link whose pair is feasible under the current
// availability, and the active pair's terminal edges on it. The caller
// admits each link at most once and only links with an available
// wavelength.
//
//wdm:hotpath
func (sk *Skeleton) Admit(links []int) []int {
	if sk.admitPhys {
		for _, e := range links {
			sk.phys.Enable(e)
		}
		return links
	}
	net, keep, buf, n := sk.aux.net, sk.aux.keep, sk.admitted, 0
	for _, e := range links {
		keep[e] = true
		buf[n] = sk.linkEdge[e]
		n++
		// A pair between two links of the group is enabled once, when the
		// second of them is admitted.
		for _, i := range sk.pairsByLink[e] {
			if cp := &sk.pairs[i]; keep[cp.ein] && keep[cp.eout] && sk.pairOK[i] {
				buf[n] = cp.edge
				n++
			}
		}
		l := net.Link(e)
		if l.From == sk.curS {
			buf[n] = sk.termOutOf[e]
			n++
		}
		if l.To == sk.curT {
			buf[n] = sk.termInOf[e]
			n++
		}
	}
	for _, id := range buf[:n] {
		sk.aux.G.Enable(id)
	}
	return buf[:n]
}

// gate enables, when on, each edge of refs whose link survives the filter
// and disables the rest.
func gate(g *graph.Graph, refs []linkEdgeRef, keep []bool, on bool) {
	for _, r := range refs {
		if on && keep[r.link] {
			g.Enable(r.edge)
		} else {
			g.Disable(r.edge)
		}
	}
}

// allFullConversion reports whether every node of net converts fully.
func allFullConversion(net *wdm.Network) bool {
	for v := 0; v < net.Nodes(); v++ {
		if _, ok := net.Converter(v).(*wdm.FullConverter); !ok {
			return false
		}
	}
	return true
}

// linkWeight returns the variant weight of a surviving link edge.
func linkWeight(l *wdm.Link, kind Kind, base float64) float64 {
	switch kind {
	case Cost:
		return l.MeanAvailCost()
	case Load:
		n := float64(l.N())
		u := float64(l.U())
		return math.Pow(base, (u+1)/n) - math.Pow(base, u/n)
	case LoadCost:
		return l.MeanInstalledCost()
	}
	return 0
}

// installedFeasible reports whether any conversion from a wavelength
// installed on ein to one installed on eout is allowed at the shared node —
// the structural superset of meanConvCost's availability test.
func installedFeasible(net *wdm.Network, conv wdm.Converter, ein, eout int) bool {
	in := net.Link(ein).Lambda()
	out := net.Link(eout).Lambda()
	switch conv.(type) {
	case *wdm.FullConverter:
		return !in.Empty() && !out.Empty()
	case wdm.NoConverter:
		return in.Intersects(out)
	}
	feasible := false
	in.ForEach(func(la int) bool {
		out.ForEach(func(lb int) bool {
			if la == lb || conv.Allowed(la, lb) {
				feasible = true
				return false
			}
			return true
		})
		return !feasible
	})
	return feasible
}

// meanConvCost returns whether any allowed conversion exists from the
// available wavelengths of ein to those of eout at the shared node, and the
// mean cost Σ c_v(λa, λb)/K_v over the K_v allowed ordered pairs (identity
// pairs count, at cost 0, matching the Theorem 2 accounting).
func meanConvCost(net *wdm.Network, conv wdm.Converter, ein, eout int) (bool, float64) {
	lin, lout := net.Link(ein), net.Link(eout)
	in, out := lin.Avail(), lout.Avail()
	// Closed forms for the stock converters replace the O(W²) ordered-pair
	// scan: under full conversion every ordered pair is allowed
	// (K = |in|·|out|, read off the links' occupancy counts, and the
	// |in ∩ out| identity pairs, a word-at-a-time popcount, cost 0), and
	// without conversion only the identity pairs exist.
	switch c := conv.(type) {
	case *wdm.FullConverter:
		k := (lin.N() - lin.U()) * (lout.N() - lout.U())
		if k == 0 {
			return false, 0
		}
		ident := in.IntersectCount(out)
		return true, c.UniformCost() * float64(k-ident) / float64(k)
	case wdm.NoConverter:
		return in.Intersects(out), 0
	}
	k := 0
	sum := 0.0
	//wdmlint:ignore hotalloc non-escaping closure; stays on the stack
	in.ForEach(func(la int) bool {
		//wdmlint:ignore hotalloc non-escaping closure; stays on the stack
		out.ForEach(func(lb int) bool {
			if la == lb {
				k++
			} else if conv.Allowed(la, lb) {
				k++
				sum += conv.Cost(la, lb)
			}
			return true
		})
		return true
	})
	if k == 0 {
		return false, 0
	}
	return true, sum / float64(k)
}

// OutNode returns the aux vertex of u_out^e for link e, or −1 if the link is
// filtered out under the current weights.
func (a *Aux) OutNode(link int) int {
	if !a.keep[link] {
		return -1
	}
	return a.outNode[link]
}

// InNode returns the aux vertex of v_in^e for link e, or −1 if filtered.
func (a *Aux) InNode(link int) int {
	if !a.keep[link] {
		return -1
	}
	return a.inNode[link]
}

// MapPath translates an aux edge-ID path into the ordered physical link IDs
// it traverses (its link edges, in order).
func (a *Aux) MapPath(path []int) []int {
	return a.AppendMapPath(nil, path)
}

// AppendMapPath appends the physical link IDs of path onto buf and returns
// the extended slice — the allocation-free variant of MapPath.
func (a *Aux) AppendMapPath(buf []int, path []int) []int {
	for _, id := range path {
		if aux := a.G.Edge(id).Aux; aux >= 0 {
			//wdmlint:ignore hotalloc appends into the caller's reusable buffer; growth amortizes to zero
			buf = append(buf, aux)
		}
	}
	return buf
}

// noCopy makes go vet's copylocks check report every copy of a type that
// holds it by value: a copied skeleton forks the caches it keeps against the
// network's version counters, and the two then go stale independently.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}
