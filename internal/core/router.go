package core

import (
	"math"

	"repro/internal/auxgraph"
	"repro/internal/check"
	"repro/internal/disjoint"
	"repro/internal/lightpath"
	"repro/internal/obs"
	"repro/internal/obs/explain"
	"repro/internal/wdm"
)

// Router is the routing entry point: every routing algorithm of the package,
// the §3/§4 algorithms and their baselines alike, is a Router method. It
// owns every piece of per-request scratch state — the Suurballe workspace
// (two Dijkstra workspaces and combine buffers) and one all-terminal
// auxiliary-graph skeleton per node-disjointness — so that a long-lived
// caller (a simulator arrival loop, a benchmark worker) routes requests
// without rebuilding the auxiliary graph or reallocating search state on
// every call. The MinCog threshold search in
// particular finds its bound in one admission pass over the cached skeleton
// instead of reweighting a graph per round. A one-shot caller uses
// NewRouter(opts).X(…).
//
// A Router is bound to the network of its most recent call. Routing on a
// different *wdm.Network keeps each skeleton that can follow it
// (auxgraph.Skeleton.Follow: a later snapshot of the same writer, as a
// pooled serving router sees on every commit) and drops the rest; workspaces are
// always kept, as they adapt to any graph size. Structural network changes
// (AddLink, SetConverter) invalidate cached skeletons automatically via the
// network's TopoVersion. A Router is not safe for concurrent use; give each
// goroutine its own (e.g. one per parallel.MapWithState worker).
type Router struct {
	opts   *Options
	net    *wdm.Network
	ws     disjoint.Workspace
	shared [2]*auxgraph.Skeleton // all-terminal skeletons, indexed by node-disjointness (0 edge, 1 node)

	cand  candScratch
	arena resultArena
	order []int     // bottleneck pass: link IDs in key order, kept between passes
	key   []float64 // bottleneck pass: per-link key
	free  []int     // feasibility test: the links with an available wavelength

	tracer   *obs.Tracer
	lastReq  int64 // request ID of the most recent traced call (-1 when untraced)
	lastTier Tier  // which tier answered the most recent routing call
}

// Tier identifies which routing tier answered a request — the stage-level
// attribution hook the serving layer splits its route timers by.
type Tier uint8

const (
	// TierExact: the exact auxiliary-graph pipeline routed the request
	// (no candidate table configured, or the algorithm has no fast tier).
	TierExact Tier = iota
	// TierCandidate: a cached candidate pair was feasible — the fast tier
	// answered without a reweight or a Suurballe search (MinLoadCost's
	// MinCog search still runs first and fixes the load bound).
	TierCandidate
	// TierFallback: the candidate tier was consulted but no cached pair was
	// feasible; the exact pipeline answered.
	TierFallback
)

func (t Tier) String() string {
	switch t {
	case TierCandidate:
		return "candidate"
	case TierFallback:
		return "exact-fallback"
	}
	return "exact"
}

// LastTier reports which tier answered the most recent routing call on this
// router. Like LastTraceID it is only meaningful immediately after the call,
// on the goroutine that owns the router.
func (r *Router) LastTier() Tier { return r.lastTier }

// rebind points the router at net. When net is a different network, each
// skeleton that cannot follow it is dropped. The same network again keeps
// every skeleton even if it moved to a later state of its writer in between
// (a recycled snapshot brought forward with wdm.Network.SyncInto): the
// skeleton's caches are keyed by version, and ReweightAt refreshes them
// from the network's journal.
func (r *Router) rebind(net *wdm.Network) {
	if r.net == net {
		return
	}
	for i, sk := range r.shared {
		if sk != nil && !sk.Follow(net) {
			r.shared[i] = nil
		}
	}
	r.net = net
}

// NewRouter returns a Router with the given options (nil for defaults).
func NewRouter(opts *Options) *Router {
	return &Router{opts: opts, lastReq: -1}
}

// SetTracer attaches a request tracer: every subsequent routing call opens a
// trace, records its phases (candidate tier, skeleton build, reweight,
// Suurballe, Lemma 2 refinement, MinCog search and its bottleneck pass) as
// spans, captures its explain report on success, and lands in the tracer's
// flight recorder. A nil tracer restores the untraced path: Tracer.Start on
// a nil tracer returns a nil trace and every obs call below is nil-safe, so
// tracing off costs a nil check per call and zero allocations (asserted by
// TestTracerDisabledAddsNoAllocs).
func (r *Router) SetTracer(tr *obs.Tracer) { r.tracer = tr }

// LastTraceID returns the request ID the most recent routing call traced, or
// -1 if it was untraced (no tracer attached). Callers correlating
// external records with flight-recorder dumps (e.g. the simulator's event
// stream) read this right after the routing call.
func (r *Router) LastTraceID() int64 { return r.lastReq }

// begin opens the per-request trace and points the Suurballe workspace at it.
func (r *Router) begin(kind string, s, t int) *obs.Trace {
	tc := r.tracer.Start(kind, s, t)
	r.lastReq = tc.ReqID()
	r.lastTier = TierExact
	r.ws.Trace = tc
	return tc
}

// finish closes the request trace. On success it captures the explain
// report's per-hop table into the trace's recycled payload, so the debug
// endpoints render any retained request (explain.Of) without re-routing it.
// loadAux marks results whose AuxWeight is congestion-based (G_c) and
// therefore not comparable to the Eq. 1 cost.
//
//wdm:coldpath beyond clearing the workspace trace, finish does work only when a tracer is attached
func (r *Router) finish(tc *obs.Trace, net *wdm.Network, res *Result, ok, loadAux bool) {
	r.ws.Trace = nil
	if tc == nil {
		return
	}
	if !ok {
		tc.Finish(obs.StatusBlocked)
		return
	}
	explain.Capture(tc, net, explain.Input{
		Req:        tc.Req,
		Algorithm:  tc.Kind,
		S:          tc.S,
		T:          tc.T,
		Primary:    res.Primary,
		Backup:     res.Backup,
		Cost:       res.Cost,
		AuxWeight:  res.AuxWeight,
		LoadAux:    loadAux,
		NaiveCost:  res.NaiveCost,
		Threshold:  res.Threshold,
		Iterations: res.Iterations,
		PathLoad:   res.PathLoad,
	})
	tc.Finish(obs.StatusOK)
}

// skeleton returns the router's valid skeleton for the given
// node-disjointness, building one on demand, after a rebind to a network
// the old one cannot follow, or after a structural network change. Every
// request of that kind shares it; ReweightAt selects the pair.
//
//wdm:coldpath skeleton rebuild happens only on a rebind it cannot follow or a structural change
func (r *Router) skeleton(net *wdm.Network, nodeDisjoint bool, tc *obs.Trace) *auxgraph.Skeleton {
	r.rebind(net)
	build, i := auxgraph.NewSharedSkeleton, 0
	if nodeDisjoint {
		build, i = auxgraph.NewNodeDisjointSkeleton, 1
	}
	sk := r.shared[i]
	if sk == nil || !sk.Valid() {
		sp := tc.Begin("skeleton-build")
		sk = build(net)
		tc.EndSpan(sp)
		tc.Str("skeleton", "build")
		r.shared[i] = sk
	} else {
		tc.Str("skeleton", "cache-hit")
	}
	return sk
}

// ApproxMinCost routes (s, t) per §3.3: auxiliary graph G′ + Suurballe +
// Lemma 2 refinement. ok is false when no two edge-disjoint semilightpaths
// exist in the residual network (or refinement is infeasible under
// restricted conversion). When the candidate-path fast tier is enabled
// (Options.CandidateTable) it is tried first; the
// exact auxiliary-graph pipeline runs only when no cached candidate pair is
// currently feasible, and only after a max-flow test (feasible) finds that
// some pair is: a request the tier declines is often one nothing can serve.
func (r *Router) ApproxMinCost(net *wdm.Network, s, t int) (*Result, bool) {
	tc := r.begin("min-cost", s, t)
	tab := r.candidateTable(net)
	if tab != nil {
		if res, ok := r.candidateRoute(net, s, t, tab, math.Inf(1), tc); ok {
			r.lastTier = TierCandidate
			tc.Str("tier", "candidate")
			r.finish(tc, net, res, true, false)
			return r.output(res), true
		}
		r.lastTier = TierFallback
		tc.Str("tier", "exact-fallback")
	}
	sk := r.skeleton(net, false, tc)
	if tab != nil && !r.feasible(net, sk, s, t, tc) {
		r.finish(tc, net, nil, false, false)
		return nil, false
	}
	a := sk.ReweightAt(s, t, auxgraph.Params{Kind: auxgraph.Cost, Trace: tc})
	pair, ok := r.ws.Suurballe(a.G, a.S, a.T)
	if !ok {
		r.finish(tc, net, nil, false, false)
		return nil, false
	}
	res, ok := r.mapAndRefine(net, a, pair, tc)
	if !ok {
		r.finish(tc, net, nil, false, false)
		return nil, false
	}
	r.finish(tc, net, res, true, false)
	return r.output(res), true
}

// ApproxMinCostNodeDisjoint routes (s, t) with an internally node-disjoint
// primary/backup pair — the stronger §1 protection discipline that survives
// single node failures as well as link failures. It reuses the §3.3
// machinery on the node-disjoint skeleton, whose unit-capacity hub gadgets
// carry every intermediate node's conversions. ok is false when no
// node-disjoint pair exists.
func (r *Router) ApproxMinCostNodeDisjoint(net *wdm.Network, s, t int) (*Result, bool) {
	tc := r.begin("min-cost-node-disjoint", s, t)
	a := r.skeleton(net, true, tc).ReweightAt(s, t, auxgraph.Params{Kind: auxgraph.Cost, Trace: tc})
	pair, ok := r.ws.Suurballe(a.G, a.S, a.T)
	if !ok {
		r.finish(tc, net, nil, false, false)
		return nil, false
	}
	res, ok := r.mapAndRefine(net, a, pair, tc)
	if !ok {
		r.finish(tc, net, nil, false, false)
		return nil, false
	}
	// Defensive: the hub gadget guarantees this, so a violation would be a
	// construction bug.
	if check.NodeDisjoint(net, res.Primary, res.Backup, s, t) != nil {
		r.ws.Trace = nil
		tc.Finish(obs.StatusError)
		return nil, false
	}
	r.finish(tc, net, res, true, false)
	return r.output(res), true
}

// linkKeys sets r.key to each link's bottleneck key: its load U/N, or with
// next its load after one more channel, (U+1)/N; +Inf for a link without an
// available wavelength, which no pass admits. It returns ϑ_min and ϑ_max,
// the least and greatest (U+1)/N over the other links, and whether there
// are any.
func (r *Router) linkKeys(net *wdm.Network, next bool) (lo, hi float64, any bool) {
	m := net.Links()
	if len(r.order) != m {
		r.order = make([]int, m)
		r.key = make([]float64, m)
		for id := range r.order {
			r.order[id] = id
		}
	}
	lo, hi = math.Inf(1), 0
	for id, key := 0, r.key; id < m; id++ {
		l := net.Link(id)
		if l.U() == l.N() { // no available wavelength; reads no bitset
			key[id] = math.Inf(1)
			continue
		}
		any = true
		after := float64(l.U()+1) / float64(l.N())
		if after < lo {
			lo = after
		}
		if after > hi {
			hi = after
		}
		if next {
			key[id] = after
		} else {
			key[id] = l.Load()
		}
	}
	return lo, hi, any
}

// bottleneck returns the bottleneck key L*, over the keys linkKeys set: the
// smallest key such that the links with an available wavelength and key
// ≤ L* carry two edge-disjoint s→t routes on the auxiliary graph, or +Inf
// when all of them do not. It also returns the augmentations the pass made
// (2 when L* is finite).
//
// The pass admits the links into the skeleton's pass graph
// (auxgraph.Skeleton.BeginAdmit: the physical graph when every node
// converts fully, the auxiliary graph otherwise) in increasing key order,
// one group of equal keys at a time, and after each group resumes one
// incremental augmenting-path search (disjoint.Workspace.ExtendFlow), so it
// costs one pass over the links and O(n + m) of search per request,
// whatever L* is. The key order is kept from the router's previous pass and
// repaired by insertion sort: between two requests only the links a commit
// touched change key, so the repair is close to one linear scan.
func (r *Router) bottleneck(sk *auxgraph.Skeleton, s, t int) (lstar float64, augs int) {
	order, key := r.order, r.key
	for i := 1; i < len(order); i++ {
		id := order[i]
		k, j := key[id], i
		for ; j > 0 && key[order[j-1]] > k; j-- {
			order[j] = order[j-1]
		}
		order[j] = id
	}
	augs = r.startFlow(sk, s, t)
	for lo := 0; lo < len(order); {
		low := key[order[lo]]
		if math.IsInf(low, 1) {
			break
		}
		hi := lo + 1
		for hi < len(order) && key[order[hi]] == low {
			hi++
		}
		if augs = r.ws.ExtendFlow(sk.Admit(order[lo:hi])); augs == 2 {
			return low, augs
		}
		lo = hi
	}
	return math.Inf(1), augs
}

// startFlow starts an admission pass of sk for (s, t)
// (auxgraph.Skeleton.BeginAdmit) and the incremental two-path flow search
// over its graph, with no link admitted yet, and returns the flow so far.
func (r *Router) startFlow(sk *auxgraph.Skeleton, s, t int) int {
	g, src, dst := sk.BeginAdmit(s, t)
	return r.ws.StartFlow(g, src, dst)
}

// feasible reports whether G′ for (s, t) carries two edge-disjoint s′→t″
// paths — whether Suurballe can succeed on it — by one admission pass that
// admits every link with an available wavelength in one group: by
// BeginAdmit's contract the pass graph then has exactly the edges
// ReweightAt(Cost) enables, or the physical graph with the same two-path
// flow. A flow below 2 means no edge-disjoint pair exists, whatever the
// weights, so the exact pipeline would block too. On a fully converting
// network this is an O(n + m) search on the physical graph. The next
// ReweightAt rewrites every bit the pass touched, so a pipeline that
// continues after it answers as on a fresh skeleton.
func (r *Router) feasible(net *wdm.Network, sk *auxgraph.Skeleton, s, t int, tc *obs.Trace) bool {
	sp := tc.Begin("feasibility")
	r.startFlow(sk, s, t) // no link admitted yet: flow 0
	m := net.Links()
	if len(r.free) < m {
		r.free = make([]int, m)
	}
	n := 0
	for id := 0; id < m; id++ {
		if l := net.Link(id); l.U() < l.N() {
			r.free[n] = id
			n++
		}
	}
	augs := r.ws.ExtendFlow(sk.Admit(r.free[:n]))
	tc.SpanInt(sp, "augmentations", int64(augs))
	tc.EndSpan(sp)
	return augs == 2
}

// minCogSearch is the Find_Two_Paths_MinCog doubling threshold search (see
// the algorithm notes on MinLoad). A round at ϑ keeps the links with an
// available wavelength and load below ϑ, and succeeds iff G_c over them
// admits two edge-disjoint paths — Suurballe's success, since G_c's weights
// are finite and non-negative and every auxiliary cycle crosses a link edge
// of positive weight. Keeping more links only adds edges, so a round
// succeeds iff ϑ > L*, the load bottleneck (bottleneck). The search finds L*
// in one pass and then replays the round schedule on that comparison alone
// (mincogSchedule), so it returns the same ϑ, round count and blocking
// decision as running the rounds would, without reweighting the graph in
// any of them. On success the caller reweights the returned skeleton at ϑ
// once.
func (r *Router) minCogSearch(net *wdm.Network, s, t int, tc *obs.Trace) (theta float64, sk *auxgraph.Skeleton, iters int, ok bool) {
	sp := tc.Begin("mincog")
	if lo, hi, any := r.linkKeys(net, false); any {
		sk = r.skeleton(net, false, tc)
		bp := tc.Begin("bottleneck")
		lstar, augs := r.bottleneck(sk, s, t)
		tc.SpanFloat(bp, "bottleneck", lstar)
		tc.SpanInt(bp, "augmentations", int64(augs))
		tc.EndSpan(bp)
		theta, iters, ok = mincogSchedule(lo, hi, lstar, minCogMaxIter)
	}
	tc.SpanInt(sp, "iters", int64(iters))
	tc.SpanFloat(sp, "theta", theta)
	tc.SpanBool(sp, "found", ok)
	tc.EndSpan(sp)
	return theta, sk, iters, ok
}

// minCogMaxIter caps the doubling rounds of the MinCog threshold search.
const minCogMaxIter = 64

// mincogSchedule replays the Find_Two_Paths_MinCog round schedule over
// ϑ ∈ [lo, hi] (linkKeys) with at most maxIter doubling rounds, deciding
// each round at ϑ by ϑ > lstar, and returns the ϑ of the first round that
// succeeds, the rounds run, and whether one succeeded. It starts at ϑ_min
// with increment Δ/2^{⌈log₂(1/Δ)⌉} and doubles the increment after every
// failed round; a round at ϑ_max that fails drops the request, and past the
// cap one last round tries ϑ_max. The schedule yields the Theorem 3 load
// ratio < 3: a success at ϑ after a failure at ϑ−δ implies ϑ* > ϑ−δ while
// δ ≤ 2·(ϑ−δ−ϑ_min) + Δ/2^{j₀}.
func mincogSchedule(lo, hi, lstar float64, maxIter int) (theta float64, iters int, ok bool) {
	delta := hi - lo
	if delta <= 1e-12 {
		// Uniform loads: the only meaningful graph is the full residual one.
		return hi, 1, hi > lstar
	}
	j0 := int(math.Ceil(math.Log2(1 / delta)))
	if j0 < 0 {
		j0 = 0
	}
	inc := math.Ldexp(delta, -j0) // Δ/2^{j₀}, exact: a power-of-two scaling
	theta = lo
	for iters < maxIter {
		iters++
		if theta >= hi {
			theta = hi
		}
		if theta > lstar {
			return theta, iters, true
		}
		if theta >= hi {
			return 0, iters, false // drop the request
		}
		theta += inc
		inc *= 2
	}
	// Iteration cap: last resort, the complete residual graph.
	iters++
	return hi, iters, hi > lstar
}

// MinLoad routes (s, t) per §4.1: find the smallest feasible load bound ϑ by
// the MinCog search over G_c (exponential congestion weights; minCogSearch
// runs the Find_Two_Paths_MinCog doubling schedule, mincogSchedule) and
// return the refined pair Suurballe finds on G_c at that bound.
func (r *Router) MinLoad(net *wdm.Network, s, t int) (*Result, bool) {
	tc := r.begin("min-load", s, t)
	theta, sk, iters, ok := r.minCogSearch(net, s, t, tc)
	if !ok {
		r.finish(tc, net, nil, false, true)
		return nil, false
	}
	// G_c at ϑ is feasible, so Suurballe finds the very pair a search
	// running Suurballe in every round would have kept.
	a := sk.ReweightAt(s, t, auxgraph.Params{Kind: auxgraph.Load, Threshold: theta, Base: r.opts.base(), Trace: tc})
	pair, ok := r.ws.Suurballe(a.G, a.S, a.T)
	if !ok {
		r.finish(tc, net, nil, false, true)
		return nil, false
	}
	res, ok := r.mapAndRefine(net, a, pair, tc)
	if !ok {
		r.finish(tc, net, nil, false, true)
		return nil, false
	}
	res.Threshold = theta
	res.Iterations = iters
	r.finish(tc, net, res, true, true)
	return r.output(res), true
}

// MinLoadCost routes (s, t) per §4.2: phase 1 fixes the feasible load bound
// ϑ with the MinCog search; phase 2 reweights the auxiliary graph as G_rc
// (same filter, average-cost weights) and routes minimum-cost within the
// bound. When the candidate-path fast tier is enabled
// (Options.CandidateTable), phase 2 first prices the cached pairs whose
// links all pass G_rc's filter, and the auxiliary graph runs only when none
// is feasible. Phase 1 is the same either way, so ϑ, Iterations and every
// block decision are too, and a tier pair's path load stays below ϑ as the
// exact pair's does (Theorem 3); only the pair's cost can differ.
func (r *Router) MinLoadCost(net *wdm.Network, s, t int) (*Result, bool) {
	tc := r.begin("min-load-cost", s, t)
	theta, sk, iters, ok := r.minCogSearch(net, s, t, tc)
	if !ok {
		r.finish(tc, net, nil, false, false)
		return nil, false
	}
	if tab := r.candidateTable(net); tab != nil {
		if res, ok := r.candidateRoute(net, s, t, tab, theta, tc); ok {
			r.lastTier = TierCandidate
			tc.Str("tier", "candidate")
			res.Threshold = theta
			res.Iterations = iters
			r.finish(tc, net, res, true, false)
			return r.output(res), true
		}
		r.lastTier = TierFallback
		tc.Str("tier", "exact-fallback")
	}
	a := sk.ReweightAt(s, t, auxgraph.Params{Kind: auxgraph.LoadCost, Threshold: theta, Base: r.opts.base(), Trace: tc})
	pair, ok := r.ws.Suurballe(a.G, a.S, a.T)
	if !ok {
		// G_rc at ϑ has the edges of G_c at ϑ, which is feasible; reaching
		// here means numerics only. Fall back to the full residual graph.
		a = sk.ReweightAt(s, t, auxgraph.Params{Kind: auxgraph.LoadCost, Threshold: math.Inf(1), Trace: tc})
		pair, ok = r.ws.Suurballe(a.G, a.S, a.T)
		if !ok {
			r.finish(tc, net, nil, false, false)
			return nil, false
		}
	}
	res, ok := r.mapAndRefine(net, a, pair, tc)
	if !ok {
		r.finish(tc, net, nil, false, false)
		return nil, false
	}
	res.Threshold = theta
	res.Iterations = iters
	// The final pair comes from G_rc, whose ω is cost-weighted, so the
	// Lemma 2 bound applies (unlike MinLoad's congestion-weighted ω).
	r.finish(tc, net, res, true, false)
	return r.output(res), true
}

// TwoStepMinCost is the naive baseline (E7): route an optimal semilightpath,
// remove its physical links, route a second one. It can fail on trap
// topologies where ApproxMinCost succeeds, and is never cheaper. It uses no
// auxiliary graph, so the Router adds only the request trace (no phase
// spans, no aux pair to audit).
//
//wdm:coldpath naive baseline for experiments, not the serving path
func (r *Router) TwoStepMinCost(net *wdm.Network, s, t int) (*Result, bool) {
	tc := r.begin("two-step", s, t)
	p1, c1, ok := lightpath.Optimal(net, s, t, nil)
	if !ok {
		r.finish(tc, net, nil, false, false)
		return nil, false
	}
	used := make(map[int]bool, p1.Len())
	for _, h := range p1.Hops {
		used[h.Link] = true
	}
	p2, c2, ok := lightpath.Optimal(net, s, t, &lightpath.Options{
		AllowedLinks: func(id int) bool { return !used[id] },
	})
	if !ok {
		r.finish(tc, net, nil, false, false)
		return nil, false
	}
	res := &Result{
		Primary:   p1,
		Backup:    p2,
		Cost:      c1 + c2,
		NaiveCost: c1 + c2,
	}
	res.PathLoad = pathLoad(net, p1, p2)
	r.finish(tc, net, res, true, false)
	return res, true
}

// OptimalLoadOracle computes the exact minimum achievable path load — the
// smallest c such that two edge-disjoint semilightpath-feasible routes exist
// using only links with (U(e)+1)/N(e) ≤ c. It is the MinCog bottleneck pass
// keyed by each link's load after routing, (U+1)/N, instead of its load
// U/N, so it is exact; it is the reference for the Theorem 3 ratio
// experiment (E3).
func (r *Router) OptimalLoadOracle(net *wdm.Network, s, t int) (float64, bool) {
	r.ws.Trace = nil // oracle probes are not request-scoped; never trace them
	if _, _, any := r.linkKeys(net, true); !any {
		return 0, false
	}
	c, _ := r.bottleneck(r.skeleton(net, false, nil), s, t)
	if math.IsInf(c, 1) {
		return 0, false
	}
	return c, true
}
