package core

import (
	"math"

	"repro/internal/disjoint"
	"repro/internal/graph"
	"repro/internal/lightpath"
	"repro/internal/wdm"
)

// CandidateTable holds precomputed edge-disjoint route pairs per (s, t) — the
// candidate-path fast tier the router tries before the exact auxiliary-graph
// pipeline. Candidates are generated on a static physical graph whose link
// weights are the installed-wavelength mean costs Σ_{λ∈Λ(e)} w(e,λ)/N(e):
// they depend only on the network's structure, never on the residual state,
// so a table stays valid across reservations and applies equally to Clones of
// the topology it was built from.
//
// Per pair the table stores, in ascending static weight:
//
//   - the jointly optimal static pair from Suurballe's algorithm (so the tier
//     never falls into the trap topologies that defeat greedy two-step
//     routing), then
//   - one pair per Yen k-shortest path: the path plus its cheapest
//     edge-disjoint partner.
//
// Admission against the residual network stays exact per candidate: the
// links' occupancy counters (U(e) >= N(e)) reject dead routes, then the
// fixed-route wavelength-assignment DP (the Lemma 2 oracle) prices the
// survivors and the cheapest feasible pair wins. Only the route *choice* is
// restricted to the cached candidates; when none is feasible the router falls
// back to the exact tier, so the tier can reduce accuracy only by a bounded
// route detour, never block a servable request.
//
// Each candidate route also carries a static lower bound on its DP cost: the
// sum, in route order, of every link's cheapest installed wavelength cost. A
// pair whose bound cannot beat the best pair priced so far is skipped before
// the pre-check and the DP. The bound never exceeds the DP's cost under any
// residual state — link costs are fixed once a link is added (a new link
// invalidates the table), the available wavelengths are a subset of the
// installed ones, every allowed conversion costs at least 0, and rounded
// float addition is monotone, so a sum taken in the DP's hop order never
// rises above the DP's (dp+cc)+base. A pair replaces the best only when it
// is strictly cheaper, so a skipped pair could not have won and the tier's
// answer is the one the exhaustive loop gives.
type CandidateTable struct {
	k      int
	n      int
	topoAt uint64
	pairs  [][]candPair // indexed s*n + t
}

type candPair struct {
	route1, route2 []int   // physical link IDs, edge-disjoint by construction
	lb1, lb2       float64 // lower bounds on the routes' DP costs (routeBound)
}

// NewCandidateTable builds a table with up to k candidate pairs for every
// (s, t) of the network. The table never changes once built, so any number
// of concurrent routers may share it via Options.CandidateTable.
func NewCandidateTable(net *wdm.Network, k int) *CandidateTable {
	if k <= 0 {
		panic("core: candidate count must be positive")
	}
	n := net.Nodes()
	t := &CandidateTable{
		k:      k,
		n:      n,
		topoAt: net.TopoVersion(),
		pairs:  make([][]candPair, n*n),
	}
	g := graph.New(n)
	cheapest := make([]float64, net.Links())
	for id := 0; id < net.Links(); id++ {
		l := net.Link(id)
		if l.N() == 0 {
			continue // carries nothing; never a candidate hop
		}
		g.AddEdgeAux(l.From, l.To, staticMeanCost(l), id)
		cheapest[id] = cheapestInstalledCost(l)
	}
	var ws disjoint.Workspace
	var sp graph.Workspace
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			ps := generate(g, &ws, &sp, s, d, k)
			for i := range ps {
				ps[i].lb1 = routeBound(cheapest, ps[i].route1)
				ps[i].lb2 = routeBound(cheapest, ps[i].route2)
			}
			t.pairs[s*n+d] = ps
		}
	}
	return t
}

// cheapestInstalledCost is min_{λ∈Λ(e)} w(e,λ): no assignment on the link,
// whatever its residual state, pays less.
func cheapestInstalledCost(l *wdm.Link) float64 {
	m := math.Inf(1)
	l.Lambda().ForEach(func(lam int) bool {
		m = min(m, l.Cost(lam))
		return true
	})
	return m
}

// routeBound is the static lower bound on a route's assignment cost: the
// links' cheapest installed costs summed in route order, starting from the
// first link's as the DP starts from its first hop's, so each partial sum
// rounds no higher than the DP's partial cost at that hop.
func routeBound(cheapest []float64, route []int) float64 {
	sum := cheapest[route[0]]
	for _, id := range route[1:] {
		sum += cheapest[id]
	}
	return sum
}

// staticMeanCost is the candidate-generation link weight: the mean cost over
// installed wavelengths, independent of the residual state.
func staticMeanCost(l *wdm.Link) float64 {
	n := l.N()
	sum := 0.0
	l.Lambda().ForEach(func(lam int) bool {
		sum += l.Cost(lam)
		return true
	})
	return sum / float64(n)
}

// valid reports whether the table may serve net: same structure version and
// node count as the network it was built from (which includes Clones, since
// cloning preserves TopoVersion).
func (t *CandidateTable) valid(net *wdm.Network) bool {
	return net.TopoVersion() == t.topoAt && net.Nodes() == t.n
}

// lookup returns the candidate pairs for (s, t).
func (t *CandidateTable) lookup(s, d int) []candPair {
	if s == d || s < 0 || d < 0 || s >= t.n || d >= t.n {
		return nil
	}
	return t.pairs[s*t.n+d]
}

// generate derives up to k edge-disjoint route pairs for (s, d) on the
// static graph g, searching with the build's workspaces ws and sp.
func generate(g *graph.Graph, ws *disjoint.Workspace, sp *graph.Workspace, s, d, k int) []candPair {
	var out []candPair
	add := func(e1, e2 []int) {
		r1 := edgesToLinks(g, e1)
		r2 := edgesToLinks(g, e2)
		for _, cp := range out {
			if (equalRoute(cp.route1, r1) && equalRoute(cp.route2, r2)) ||
				(equalRoute(cp.route1, r2) && equalRoute(cp.route2, r1)) {
				return
			}
		}
		out = append(out, candPair{route1: r1, route2: r2})
	}
	if pr, ok := ws.Suurballe(g, s, d); ok {
		add(pr.Path1, pr.Path2)
	}
	for _, p1 := range g.Yen(s, d, k) {
		if len(out) >= k {
			break
		}
		for _, e := range p1 {
			g.Disable(e)
		}
		g.DijkstraInto(sp, s)
		p2, ok := sp.AppendPathTo(nil, d, g)
		for _, e := range p1 {
			g.Enable(e)
		}
		if ok {
			add(p1, p2)
		}
	}
	return out
}

// edgesToLinks maps static-graph edges to the physical link IDs they carry.
func edgesToLinks(g *graph.Graph, edges []int) []int {
	links := make([]int, len(edges))
	for i, e := range edges {
		links[i] = g.Edge(e).Aux
	}
	return links
}

func equalRoute(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// candScratch is the router-owned admission state of the candidate tier: one
// wavelength-assignment workspace plus double-buffered hop storage, so
// evaluating k candidates allocates nothing warm.
type candScratch struct {
	aw    lightpath.AssignWorkspace
	cur   [2][]wdm.Hop
	best  [2][]wdm.Hop
	bestC [2]float64
}

// candidateTable returns the shared candidate table when one is configured
// and valid for net, or nil when the fast tier is off.
func (r *Router) candidateTable(net *wdm.Network) *CandidateTable {
	if t := r.opts.candidateTable(); t != nil && t.valid(net) {
		return t
	}
	return nil
}

// routeAvailable is the admission pre-check: every link of the route must
// still have an available wavelength, read from the link's counters. The
// assignment DP then settles exact conversion feasibility and cost for
// survivors.
func routeAvailable(net *wdm.Network, route []int) bool {
	for _, id := range route {
		if l := net.Link(id); l.U() >= l.N() {
			return false
		}
	}
	return true
}

// candidateRoute runs the fast tier for (s, t). ok=false means the tier
// declines — no candidates cached for the pair, or none feasible on the
// current residual state — and the caller falls back to the exact pipeline.
// The result lives in the router's arena.
func (r *Router) candidateRoute(net *wdm.Network, s, t int, tab *CandidateTable) (*Result, bool) {
	cands := tab.lookup(s, t)
	if len(cands) == 0 {
		return nil, false
	}
	cs := &r.cand
	found := false
	bestCost := math.Inf(1)
	for ci := range cands {
		cp := &cands[ci]
		// A pair wins only when strictly cheaper than the best so far, and
		// its bounds never exceed its DP costs: skip any pair (or its second
		// route) whose bound already reaches the best.
		if cp.lb1+cp.lb2 >= bestCost {
			continue
		}
		if !routeAvailable(net, cp.route1) || !routeAvailable(net, cp.route2) {
			continue
		}
		h1, c1, ok := lightpath.AssignInto(&cs.aw, net, cp.route1, cs.cur[0])
		cs.cur[0] = h1
		if !ok || c1+cp.lb2 >= bestCost {
			continue
		}
		h2, c2, ok := lightpath.AssignInto(&cs.aw, net, cp.route2, cs.cur[1])
		cs.cur[1] = h2
		if !ok {
			continue
		}
		if total := c1 + c2; total < bestCost {
			found = true
			bestCost = total
			cs.cur, cs.best = cs.best, cs.cur // winner's hops now live in best
			cs.bestC = [2]float64{c1, c2}
		}
	}
	if !found {
		return nil, false
	}
	ar := &r.arena
	ar.res = Result{}
	res := &ar.res
	ar.sl[0].Hops = cs.best[0]
	ar.sl[1].Hops = cs.best[1]
	p1, p2 := &ar.sl[0], &ar.sl[1]
	c1, c2 := cs.bestC[0], cs.bestC[1]
	// Order so the cheaper path serves as primary, as the exact tier does.
	if c2 < c1 {
		p1, p2 = p2, p1
	}
	res.Primary, res.Backup = p1, p2
	res.Cost = bestCost
	res.NaiveCost = bestCost
	res.PathLoad = pathLoad(net, p1, p2)
	return res, true
}
