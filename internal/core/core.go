// Package core implements the paper's robust-routing algorithms: for a
// connection request (s, t) it establishes two edge-disjoint semilightpaths —
// a primary and a pre-reserved backup — under three objectives:
//
//   - ApproxMinCost (§3.3): minimise the cost sum. Build the auxiliary graph
//     G′, find a minimum-weight edge-disjoint pair with Suurballe's
//     algorithm, map each auxiliary path to its induced subgraph G_i, and
//     refine by optimal wavelength assignment (Lemma 2). 2-approximation
//     under the paper's assumptions (Theorem 2).
//   - MinLoad (§4.1, Find_Two_Paths_MinCog): minimise the network load via a
//     doubling threshold search over ϑ and the exponential congestion
//     weights of G_c. Load within 3× of optimal (Theorem 3).
//   - MinLoadCost (§4.2): two phases — fix a feasible load bound ϑ with the
//     MinCog search, then route minimum-cost within that bound on G_rc.
//
// Baselines used by the evaluation: TwoStepMinCost (shortest semilightpath,
// delete, second shortest) and the exact solvers in package exact.
//
// Every routing algorithm of the package is a Router method, with no
// exceptions, and a one-shot caller uses NewRouter(opts).X(…).
//
// A routed Result reserves nothing. Result.Pair hands its two paths to a
// conns.Table, which reserves and releases channels for live connections.
package core

import (
	"math"

	"repro/internal/auxgraph"
	"repro/internal/conns"
	"repro/internal/disjoint"
	"repro/internal/lightpath"
	"repro/internal/obs"
	"repro/internal/wdm"
)

// Options tunes the approximate algorithms.
type Options struct {
	// Base is the exponent base a > 1 for the G_c congestion weights
	// (auxgraph.DefaultBase if 0).
	Base float64
	// CandidateTable enables the precomputed candidate-path fast tier: the
	// table's edge-disjoint route pairs (NewCandidateTable) are tried with
	// occupancy-counter feasibility checks and per-route optimal wavelength
	// assignment, skipping pairs whose static cost bound cannot win, before
	// ApproxMinCost falls back to the exact auxiliary-graph pipeline.
	// A table never changes once built, so concurrent routers may share one.
	// It must have been built from the same network the routing calls use,
	// or from a Clone ancestor with identical structure; otherwise the tier
	// stays off. nil disables the tier.
	CandidateTable *CandidateTable
	// ReuseResult skips the copy-out. Every routing call builds its Result
	// in buffers owned by the Router; by default the caller receives a deep
	// copy of it (the Result, its two Semilightpaths and their hops). With
	// ReuseResult the caller receives the Router's own Result, which the next
	// routing call on the same Router overwrites. Callers that consume or
	// copy routes immediately (the simulator's arrival loop, the serving
	// engine) set this to route allocation-free; callers that retain Results
	// must not.
	ReuseResult bool
}

func (o *Options) base() float64 {
	if o == nil || o.Base == 0 {
		return auxgraph.DefaultBase
	}
	return o.Base
}

func (o *Options) reuseResult() bool { return o != nil && o.ReuseResult }

func (o *Options) candidateTable() *CandidateTable {
	if o == nil {
		return nil
	}
	return o.CandidateTable
}

// Result is a routed request: two edge-disjoint semilightpaths plus the
// diagnostics the experiments record.
type Result struct {
	Primary *wdm.Semilightpath
	Backup  *wdm.Semilightpath
	// Cost is C(Primary) + C(Backup) per Eq. 1 — after refinement.
	Cost float64
	// AuxWeight is ω(P₁) + ω(P₂), the auxiliary-graph pair weight the
	// Lemma 2 bound compares against (0 for algorithms without an aux pair).
	AuxWeight float64
	// NaiveCost is the cost of the first-fit (unrefined) wavelength
	// assignment on the mapped routes — the C(P₁₁)+C(P₂₂) side of Lemma 2.
	// +Inf when first-fit is infeasible.
	NaiveCost float64
	// Threshold is the load bound ϑ found by the MinCog search (load
	// variants only).
	Threshold float64
	// PathLoad is max over chosen links of (U(e)+1)/N(e) — the network-load
	// contribution of this route if it is established.
	PathLoad float64
	// Iterations is the number of threshold-search rounds (load variants).
	Iterations int
}

// Pair returns the result's primary and backup hops as a connection-table
// pair, for conns.Table.Admit and Reroute. It shares r's hop slices; the
// table copies them.
func (r *Result) Pair() conns.Pair {
	return conns.Pair{Primary: r.Primary.Hops, Backup: r.Backup.Hops}
}

// pathLoad computes max (U(e)+1)/N(e) over the links of both paths.
func pathLoad(net *wdm.Network, ps ...*wdm.Semilightpath) float64 {
	rho := 0.0
	for _, p := range ps {
		for _, h := range p.Hops {
			l := net.Link(h.Link)
			if r := float64(l.U()+1) / float64(l.N()); r > rho {
				rho = r
			}
		}
	}
	return rho
}

// firstFitInto assigns the smallest available wavelength to every link of
// the route and returns the resulting Eq. 1 cost, or +Inf when some implied
// conversion is disallowed. This is the unrefined P_ii assignment of §3.3.
// The hop sequence goes into *buf (grown as needed) and the semilightpath
// header into sl.
func firstFitInto(net *wdm.Network, route []int, sl *wdm.Semilightpath, buf *[]wdm.Hop) (*wdm.Semilightpath, float64) {
	hops := (*buf)[:0]
	for _, id := range route {
		lam := net.Link(id).Avail().Min()
		if lam < 0 {
			return nil, math.Inf(1)
		}
		//wdmlint:ignore hotalloc grows the caller-owned hop buffer; amortizes to zero once warm
		hops = append(hops, wdm.Hop{Link: id, Wavelength: lam})
	}
	*buf = hops
	sl.Hops = hops
	c := sl.Cost(net)
	if math.IsInf(c, 1) { // disallowed conversion surfaces as +Inf ConvCost
		return nil, math.Inf(1)
	}
	return sl, c
}

// resultArena is the Router-owned storage every routing call builds its
// result in: the Result, the semilightpath headers for the naive and refined
// assignment of both paths, and every hop/route buffer the refinement
// writes. One routing call's output occupies it until the next call.
type resultArena struct {
	res   Result
	sl    [4]wdm.Semilightpath // [2i] = naive, [2i+1] = refined, per path i
	hops  [4][]wdm.Hop
	route [2][]int
	aw    lightpath.AssignWorkspace
}

// output hands a routing call's arena result to the caller: the arena
// Result itself under Options.ReuseResult, otherwise a deep copy — the
// Result, its two semilightpaths and their hops — that shares nothing with
// the router.
//
//wdm:coldpath the copy is taken only by routers without ReuseResult; the serving and simulator routers return the arena result
func (r *Router) output(res *Result) *Result {
	if r.opts.reuseResult() {
		return res
	}
	out := *res
	out.Primary = &wdm.Semilightpath{Hops: append([]wdm.Hop(nil), res.Primary.Hops...)}
	out.Backup = &wdm.Semilightpath{Hops: append([]wdm.Hop(nil), res.Backup.Hops...)}
	return &out
}

// mapAndRefine converts an auxiliary pair into two semilightpaths. Each aux
// path is mapped to its physical route; the Lemma 2 refinement then finds
// the optimal wavelength assignment on that route (the optimal semilightpath
// of the induced subgraph G_i, whose links are exactly the route's links).
// ok is false when neither refinement nor first-fit yields a feasible
// assignment for one of the routes (possible only with restricted
// converters). Everything returned lives in the router's arena.
func (r *Router) mapAndRefine(net *wdm.Network, a *auxgraph.Aux, pair *disjoint.Pair, tc *obs.Trace) (*Result, bool) {
	ar := &r.arena
	ar.res = Result{AuxWeight: pair.Weight}
	res := &ar.res
	var paths [2]*wdm.Semilightpath
	naiveTotal := 0.0
	for i, auxPath := range [2][]int{pair.Path1, pair.Path2} {
		sp := tc.Begin("refine") // one span per G_i (primary, then backup)
		ar.route[i] = a.AppendMapPath(ar.route[i][:0], auxPath)
		route := ar.route[i]
		if len(route) == 0 {
			tc.EndSpan(sp)
			return nil, false
		}
		naive, nc := firstFitInto(net, route, &ar.sl[2*i], &ar.hops[2*i])
		hops, rc, okR := lightpath.AssignInto(&ar.aw, net, route, ar.hops[2*i+1])
		ar.hops[2*i+1], ar.sl[2*i+1].Hops = hops, hops
		naiveTotal += nc
		fallback := false
		switch {
		case okR:
			paths[i] = &ar.sl[2*i+1]
			res.Cost += rc
		case naive != nil:
			paths[i] = naive
			res.Cost += nc
			fallback = true
		default:
			tc.EndSpan(sp)
			return nil, false
		}
		if tc != nil {
			tc.SpanInt(sp, "route_len", int64(len(route)))
			tc.SpanFloat(sp, "naive_cost", nc)
			if okR {
				tc.SpanFloat(sp, "refined_cost", rc)
			}
			tc.SpanBool(sp, "fallback", fallback)
			tc.EndSpan(sp)
		}
	}
	res.NaiveCost = naiveTotal
	res.Primary, res.Backup = paths[0], paths[1]
	// Order so the cheaper path serves as primary.
	if res.Backup.Cost(net) < res.Primary.Cost(net) {
		res.Primary, res.Backup = res.Backup, res.Primary
	}
	res.PathLoad = pathLoad(net, res.Primary, res.Backup)
	return res, true
}
