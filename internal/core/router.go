package core

import (
	"math"
	"sort"

	"repro/internal/auxgraph"
	"repro/internal/disjoint"
	"repro/internal/lightpath"
	"repro/internal/obs"
	"repro/internal/obs/explain"
	"repro/internal/wdm"
)

// Router is the routing entry point: every algorithm of the package is a
// Router method. It owns every piece of per-request scratch state — the
// Suurballe workspace (two Dijkstra workspaces, residual graph, combine
// buffers) and one all-terminal auxiliary-graph skeleton per
// node-disjointness — so that a long-lived caller (a simulator arrival loop,
// a benchmark worker) routes requests without rebuilding the auxiliary graph
// or reallocating search state on every call. The MinCog threshold search in
// particular reweights one skeleton per round instead of constructing a
// fresh graph per round. A one-shot caller uses NewRouter(opts).X(…).
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
	// TierCandidate: a precomputed candidate pair was feasible — the fast
	// tier answered without touching the auxiliary graph.
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
// skeleton that cannot follow it is dropped.
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
// trace, records its phases (skeleton build, reweight, Suurballe, Lemma 2
// refinement, MinCog rounds) as spans, captures its explain report on
// success, and lands in the tracer's flight recorder. A nil tracer — or a
// disabled one — restores the zero-overhead path: every obs call below is
// nil-safe, so tracing off costs one atomic load per request and zero
// allocations (asserted by TestTracerDisabledAddsNoAllocs).
func (r *Router) SetTracer(tr *obs.Tracer) { r.tracer = tr }

// LastTraceID returns the request ID the most recent routing call traced, or
// -1 if it was untraced (no tracer, or tracer disabled). Callers correlating
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
// currently feasible.
func (r *Router) ApproxMinCost(net *wdm.Network, s, t int) (*Result, bool) {
	instr.routeCalls.Inc()
	tc := r.begin("min-cost", s, t)
	if tab := r.candidateTable(net); tab != nil {
		if res, ok := r.candidateRoute(net, s, t, tab); ok {
			instr.routeFound.Inc()
			instr.candidateHits.Inc()
			r.lastTier = TierCandidate
			tc.Str("tier", "candidate")
			r.finish(tc, net, res, true, false)
			return r.output(res), true
		}
		instr.candidateFallbacks.Inc()
		r.lastTier = TierFallback
		tc.Str("tier", "exact-fallback")
	}
	tb := instr.phaseBuild.Start()
	a := r.skeleton(net, false, tc).ReweightAt(s, t, auxgraph.Params{Kind: auxgraph.Cost, Trace: tc})
	instr.phaseBuild.Stop(tb)
	td := instr.phaseDisjoint.Start()
	pair, ok := r.ws.Suurballe(a.G, a.S, a.T)
	instr.phaseDisjoint.Stop(td)
	if !ok {
		r.finish(tc, net, nil, false, false)
		return nil, false
	}
	res, ok := r.mapAndRefine(net, a, pair, tc)
	if !ok {
		r.finish(tc, net, nil, false, false)
		return nil, false
	}
	instr.routeFound.Inc()
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
	instr.routeCalls.Inc()
	tc := r.begin("min-cost-node-disjoint", s, t)
	tb := instr.phaseBuild.Start()
	a := r.skeleton(net, true, tc).ReweightAt(s, t, auxgraph.Params{Kind: auxgraph.Cost, Trace: tc})
	instr.phaseBuild.Stop(tb)
	td := instr.phaseDisjoint.Start()
	pair, ok := r.ws.Suurballe(a.G, a.S, a.T)
	instr.phaseDisjoint.Stop(td)
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
	if !nodesDisjoint(net, res.Primary, res.Backup, s, t) {
		r.ws.Trace = nil
		tc.Finish(obs.StatusError)
		return nil, false
	}
	instr.routeFound.Inc()
	r.finish(tc, net, res, true, false)
	return r.output(res), true
}

// minCogSearch is the Find_Two_Paths_MinCog doubling threshold search (see
// the algorithm notes on MinLoad). Each round reweights the one cached
// skeleton at ϑ and asks only whether G_c admits two edge-disjoint paths
// (disjoint.Workspace.Feasible, two BFS augmentations); the search never
// builds a pair. Feasible answers exactly as Suurballe would: G_c's weights
// are finite and non-negative, and it has no zero-weight cycle, because
// every auxiliary cycle crosses a link edge and link edges weigh more than
// zero. On success the returned Aux is still reweighted at ϑ, so a caller
// that needs the pair runs Suurballe on it once.
func (r *Router) minCogSearch(net *wdm.Network, s, t int, kind auxgraph.Kind, tc *obs.Trace) (theta float64, aOut *auxgraph.Aux, iters int, ok bool) {
	defer instr.phaseMinCog.Stop(instr.phaseMinCog.Start())
	//wdmlint:ignore hotalloc non-escaping closure; stays on the stack
	defer func() { instr.mincogIters.Observe(float64(iters)) }()
	sp := tc.Begin("mincog")
	//wdmlint:ignore hotalloc non-escaping closure; stays on the stack
	defer func() {
		tc.SpanInt(sp, "iters", int64(iters))
		tc.SpanFloat(sp, "theta", theta)
		tc.SpanBool(sp, "found", ok)
		tc.EndSpan(sp)
	}()
	lo, hi, any := thetaBounds(net)
	if !any {
		return 0, nil, 0, false
	}
	sk := r.skeleton(net, false, tc)
	//wdmlint:ignore hotalloc non-escaping closure; stays on the stack
	try := func(theta float64) (*auxgraph.Aux, bool) {
		a := sk.ReweightAt(s, t, auxgraph.Params{Kind: kind, Threshold: theta, Base: r.opts.base(), Trace: tc})
		return a, r.ws.Feasible(a.G, a.S, a.T)
	}
	delta := hi - lo
	if delta <= 1e-12 {
		// Uniform loads: the only meaningful graph is the full residual one.
		a, ok := try(hi)
		return hi, a, 1, ok
	}
	j0 := int(math.Ceil(math.Log2(1 / delta)))
	if j0 < 0 {
		j0 = 0
	}
	inc := delta / math.Pow(2, float64(j0))
	theta = lo
	maxIter := r.opts.maxIter()
	for iters < maxIter {
		iters++
		if theta >= hi {
			theta = hi
		}
		a, ok := try(theta)
		if ok {
			return theta, a, iters, true
		}
		if theta >= hi {
			return 0, nil, iters, false // drop the request
		}
		theta += inc
		inc *= 2
	}
	// Iteration cap: last resort, the complete residual graph.
	iters++
	a, ok := try(hi)
	return hi, a, iters, ok
}

// MinLoad routes (s, t) per §4.1: find the smallest feasible load bound ϑ by
// the MinCog search over G_c (exponential congestion weights) and return the
// refined pair found at that bound.
//
// The search (minCogSearch) runs the Find_Two_Paths_MinCog doubling
// schedule: it starts at ϑ_min with increment Δ/2^{⌈log₂(1/Δ)⌉} and doubles
// the increment after every infeasible round, finishing with the complete
// residual graph at ϑ_max. The schedule yields the Theorem 3 load ratio < 3:
// a success at ϑ after a failure at ϑ−δ implies ϑ* > ϑ−δ while
// δ ≤ 2·(ϑ−δ−ϑ_min) + Δ/2^{j₀}.
func (r *Router) MinLoad(net *wdm.Network, s, t int) (*Result, bool) {
	instr.routeCalls.Inc()
	tc := r.begin("min-load", s, t)
	theta, a, iters, ok := r.minCogSearch(net, s, t, auxgraph.Load, tc)
	if !ok {
		r.finish(tc, net, nil, false, true)
		return nil, false
	}
	// The search certified a is feasible, so Suurballe finds the very pair a
	// search running Suurballe in every round would have kept.
	td := instr.phaseDisjoint.Start()
	pair, ok := r.ws.Suurballe(a.G, a.S, a.T)
	instr.phaseDisjoint.Stop(td)
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
	instr.routeFound.Inc()
	r.finish(tc, net, res, true, true)
	return r.output(res), true
}

// MinLoadCost routes (s, t) per §4.2: phase 1 fixes the feasible load bound
// ϑ with the MinCog search; phase 2 reweights the auxiliary graph as G_rc
// (same filter, average-cost weights) and routes minimum-cost within the
// bound.
func (r *Router) MinLoadCost(net *wdm.Network, s, t int) (*Result, bool) {
	instr.routeCalls.Inc()
	tc := r.begin("min-load-cost", s, t)
	theta, _, iters, ok := r.minCogSearch(net, s, t, auxgraph.Load, tc)
	if !ok {
		r.finish(tc, net, nil, false, false)
		return nil, false
	}
	sk := r.skeleton(net, false, tc)
	tb := instr.phaseBuild.Start()
	a := sk.ReweightAt(s, t, auxgraph.Params{Kind: auxgraph.LoadCost, Threshold: theta, Base: r.opts.base(), Trace: tc})
	instr.phaseBuild.Stop(tb)
	td := instr.phaseDisjoint.Start()
	pair, ok := r.ws.Suurballe(a.G, a.S, a.T)
	instr.phaseDisjoint.Stop(td)
	if !ok {
		// ϑ was certified feasible on the identical G_c skeleton; reaching
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
	instr.routeFound.Inc()
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
	instr.routeCalls.Inc()
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
	instr.routeFound.Inc()
	r.finish(tc, net, res, true, false)
	return res, true
}

// OptimalLoadOracle computes the exact minimum achievable path load — the
// smallest c such that two edge-disjoint semilightpath-feasible routes exist
// using only links with (U(e)+1)/N(e) ≤ c. Candidate values are the finite
// set of per-link ratios, so the oracle is exact; it is the reference for
// the Theorem 3 ratio experiment (E3). Each candidate cap reweights the same
// cached skeleton and, like a MinCog round, only tests it for feasibility.
func (r *Router) OptimalLoadOracle(net *wdm.Network, s, t int) (float64, bool) {
	r.ws.Trace = nil // oracle probes are not request-scoped; never trace them
	ratios := map[float64]bool{}
	for id := 0; id < net.Links(); id++ {
		l := net.Link(id)
		if l.Avail().Empty() || l.N() == 0 {
			continue
		}
		ratios[float64(l.U()+1)/float64(l.N())] = true
	}
	if len(ratios) == 0 {
		return 0, false
	}
	cands := make([]float64, 0, len(ratios))
	for r := range ratios {
		cands = append(cands, r)
	}
	sort.Float64s(cands)
	sk := r.skeleton(net, false, nil)
	for _, c := range cands {
		// Exact filter: keep exactly the links whose post-routing ratio
		// (U+1)/N stays within the candidate cap.
		a := sk.ReweightAt(s, t, auxgraph.Params{
			Kind: auxgraph.Load,
			Filter: func(id int) bool {
				l := net.Link(id)
				return float64(l.U()+1)/float64(l.N()) <= c+1e-12
			},
		})
		if r.ws.Feasible(a.G, a.S, a.T) {
			return c, true
		}
	}
	return 0, false
}
