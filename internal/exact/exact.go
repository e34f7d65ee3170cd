// Package exact provides two independent exact solvers for the optimal
// edge-disjoint semilightpath problem (§3.1), usable on small instances:
//
//   - ILP: builds the paper's 0/1 integer program (Eqs. 3–21), with the
//     conversion-cost terms (17)–(18) linearised as
//     z ≥ (x^{l1}_{e1} + x^{l2}_{e2} − 1)·c_v(λ_{l1}, λ_{l2}), z ≥ 0,
//     and solves it with branch-and-bound over LP relaxations.
//   - Exhaustive: enumerates pairs of edge-disjoint node-simple routes and
//     optimally wavelength-assigns each fixed route by DP (assignment
//     decomposes per path once the routes are fixed).
//
// Both solvers optimise over node-simple paths, exactly the feasible set the
// paper's degree constraints (Ineqs. 5–6, 11–12) induce. Agreement between
// them is itself an experiment (E9).
package exact

import (
	"math"

	"repro/internal/ilp"
	"repro/internal/lightpath"
	"repro/internal/lp"
	"repro/internal/wdm"
)

// Solution is an exact optimum: two edge-disjoint semilightpaths and the
// Eq. 3 objective value (cost sum of both paths).
type Solution struct {
	Primary *wdm.Semilightpath
	Backup  *wdm.Semilightpath
	Cost    float64
}

// Exhaustive finds the optimal edge-disjoint pair by route enumeration.
// maxRoutes caps the number of simple routes considered per endpoint pair
// (0 = 100000); if the cap is hit the result may be suboptimal, signalled by
// truncated = true.
func Exhaustive(net *wdm.Network, s, t int, maxRoutes int) (sol *Solution, truncated bool, ok bool) {
	if maxRoutes <= 0 {
		maxRoutes = 100000
	}
	if s == t || s < 0 || t < 0 || s >= net.Nodes() || t >= net.Nodes() {
		return nil, false, false
	}
	routes, truncated := enumerateRoutes(net, s, t, maxRoutes)
	if len(routes) < 2 {
		return nil, truncated, false
	}
	type assigned struct {
		path *wdm.Semilightpath
		cost float64
		used map[int]bool
	}
	cache := make([]assigned, len(routes))
	for i, r := range routes {
		p, c, okA := lightpath.AssignWavelengths(net, r)
		if !okA {
			cache[i] = assigned{cost: math.Inf(1)}
			continue
		}
		used := make(map[int]bool, len(r))
		for _, id := range r {
			used[id] = true
		}
		cache[i] = assigned{path: p, cost: c, used: used}
	}
	best := math.Inf(1)
	var bi, bj = -1, -1
	for i := range cache {
		if math.IsInf(cache[i].cost, 1) {
			continue
		}
		for j := i + 1; j < len(cache); j++ {
			if math.IsInf(cache[j].cost, 1) {
				continue
			}
			total := cache[i].cost + cache[j].cost
			if total >= best {
				continue
			}
			disjointPair := true
			for id := range cache[j].used {
				if cache[i].used[id] {
					disjointPair = false
					break
				}
			}
			if disjointPair {
				best = total
				bi, bj = i, j
			}
		}
	}
	if bi < 0 {
		return nil, truncated, false
	}
	return &Solution{Primary: cache[bi].path, Backup: cache[bj].path, Cost: best}, truncated, true
}

// enumerateRoutes lists node-simple routes (link-ID sequences) from s to t
// over links with available wavelengths.
func enumerateRoutes(net *wdm.Network, s, t, cap int) ([][]int, bool) {
	var routes [][]int
	truncated := false
	onPath := make([]bool, net.Nodes())
	var route []int
	var dfs func(u int)
	dfs = func(u int) {
		if truncated {
			return
		}
		if u == t {
			if len(routes) >= cap {
				truncated = true
				return
			}
			routes = append(routes, append([]int(nil), route...))
			return
		}
		onPath[u] = true
		for _, id := range net.Out(u) {
			if truncated {
				break
			}
			l := net.Link(id)
			if l.Avail().Empty() || onPath[l.To] || l.To == s {
				continue
			}
			route = append(route, id)
			dfs(l.To)
			route = route[:len(route)-1]
		}
		onPath[u] = false
	}
	dfs(s)
	return routes, truncated
}

// ILPConfig tunes the integer-programming solve.
type ILPConfig struct {
	// MaxNodes caps branch-and-bound nodes (0 = ilp default).
	MaxNodes int
}

// ILPStats reports solver effort, used by the E9 experiment.
type ILPStats struct {
	Vars        int
	Constraints int
	Nodes       int
}

// ILP builds the paper's Eq. 3–21 program for a request (s, t) on the
// residual network and solves it exactly. ok is false when the program is
// infeasible (no two edge-disjoint semilightpaths exist) or the node limit
// was hit without an incumbent.
func ILP(net *wdm.Network, s, t int, cfg ILPConfig) (sol *Solution, stats ILPStats, ok bool) {
	if s == t || s < 0 || t < 0 || s >= net.Nodes() || t >= net.Nodes() {
		return nil, stats, false
	}
	b := newBuilder(net, s, t)
	prob, binaries := b.build()
	stats.Vars = prob.NumVars()
	stats.Constraints = prob.NumConstraints()
	res := ilp.Solve(prob, binaries, ilp.Config{MaxNodes: cfg.MaxNodes})
	stats.Nodes = res.Nodes
	if !res.Found || res.Status != ilp.Optimal {
		return nil, stats, false
	}
	p1, ok1 := b.extractPath(res.X, b.xVar)
	p2, ok2 := b.extractPath(res.X, b.yVar)
	if !ok1 || !ok2 {
		return nil, stats, false
	}
	return &Solution{Primary: p1, Backup: p2, Cost: res.Obj}, stats, true
}

// builder assembles the Eq. 3–21 program.
type builder struct {
	net  *wdm.Network
	s, t int

	// xVar[e][λ] / yVar[e][λ] = variable index, −1 when λ unavailable on e.
	xVar [][]int
	yVar [][]int
	nv   int
	obj  []float64

	// zPairs lists consecutive-link pairs needing a conversion variable.
	zVar map[[2]int]int // (e1,e2) -> z variable (primary)
	tVar map[[2]int]int // (e1,e2) -> t variable (backup)
}

func newBuilder(net *wdm.Network, s, t int) *builder {
	return &builder{net: net, s: s, t: t,
		zVar: map[[2]int]int{}, tVar: map[[2]int]int{}}
}

func (b *builder) newVar(cost float64) int {
	b.obj = append(b.obj, cost)
	b.nv++
	return b.nv - 1
}

func (b *builder) build() (*lp.Problem, []int) {
	net := b.net
	m := net.Links()
	w := net.W()
	b.xVar = make([][]int, m)
	b.yVar = make([][]int, m)
	var binaries []int
	for e := 0; e < m; e++ {
		b.xVar[e] = make([]int, w)
		b.yVar[e] = make([]int, w)
		for lam := 0; lam < w; lam++ {
			b.xVar[e][lam] = -1
			b.yVar[e][lam] = -1
		}
		l := net.Link(e)
		l.Avail().ForEach(func(lam int) bool {
			b.xVar[e][lam] = b.newVar(l.Cost(lam))
			binaries = append(binaries, b.xVar[e][lam])
			b.yVar[e][lam] = b.newVar(l.Cost(lam))
			binaries = append(binaries, b.yVar[e][lam])
			return true
		})
	}
	// Conversion variables z_{e1,e2} (primary) and t_{e1,e2} (backup) for
	// every consecutive pair head(e1) = tail(e2).
	for e1 := 0; e1 < m; e1++ {
		l1 := net.Link(e1)
		if l1.Avail().Empty() {
			continue
		}
		for _, e2 := range net.Out(l1.To) {
			if e2 == e1 || net.Link(e2).Avail().Empty() {
				continue
			}
			b.zVar[[2]int{e1, e2}] = b.newVar(1)
			b.tVar[[2]int{e1, e2}] = b.newVar(1)
		}
	}

	prob := lp.NewProblem(b.nv, b.obj)
	b.addPathConstraints(prob, b.xVar) // Ineqs. 4–9
	b.addPathConstraints(prob, b.yVar) // Ineqs. 10–15
	// Ineq. 16: edge-disjointness.
	for e := 0; e < m; e++ {
		coef := map[int]float64{}
		for lam := 0; lam < w; lam++ {
			if v := b.xVar[e][lam]; v >= 0 {
				coef[v] = 1
			}
			if v := b.yVar[e][lam]; v >= 0 {
				coef[v] = coef[v] + 1
			}
		}
		if len(coef) > 0 {
			prob.AddConstraint(coef, lp.LE, 1)
		}
	}
	// Ineqs. 17/20 and 18/21: conversion costs (and conversion legality).
	b.addConversionConstraints(prob, b.xVar, b.zVar)
	b.addConversionConstraints(prob, b.yVar, b.tVar)
	return prob, binaries
}

// addPathConstraints adds the unit-flow path constraints (Ineqs. 4–9 for the
// primary variables or 10–15 for the backup).
func (b *builder) addPathConstraints(prob *lp.Problem, vars [][]int) {
	net := b.net
	w := net.W()
	// (4): one wavelength per used link.
	for e := range vars {
		coef := map[int]float64{}
		for lam := 0; lam < w; lam++ {
			if v := vars[e][lam]; v >= 0 {
				coef[v] = 1
			}
		}
		if len(coef) > 0 {
			prob.AddConstraint(coef, lp.LE, 1)
		}
	}
	sumLinks := func(ids []int) map[int]float64 {
		coef := map[int]float64{}
		for _, e := range ids {
			for lam := 0; lam < w; lam++ {
				if v := vars[e][lam]; v >= 0 {
					coef[v] = coef[v] + 1
				}
			}
		}
		return coef
	}
	for i := 0; i < net.Nodes(); i++ {
		out := sumLinks(net.Out(i))
		in := sumLinks(net.In(i))
		// (5): at most one outgoing, i ≠ t.
		if i != b.t && len(out) > 0 {
			prob.AddConstraint(out, lp.LE, 1)
		}
		// (6): at most one incoming, i ≠ s.
		if i != b.s && len(in) > 0 {
			prob.AddConstraint(in, lp.LE, 1)
		}
		switch i {
		case b.s:
			// (8): unit flow out of s. The constraints as literally written
			// in the paper also admit in(s) = out(t) = 1 — a cycle through s
			// paired with a cycle through t and no s→t connectivity at all —
			// so we add the implied in(s) = 0 to close that hole.
			prob.AddConstraint(out, lp.EQ, 1)
			if len(in) > 0 {
				prob.AddConstraint(in, lp.EQ, 0)
			}
		case b.t:
			// (9): unit flow into t, plus the implied out(t) = 0 (see above).
			prob.AddConstraint(in, lp.EQ, 1)
			if len(out) > 0 {
				prob.AddConstraint(out, lp.EQ, 0)
			}
		default:
			// (7): conservation.
			coef := map[int]float64{}
			for v, c := range out {
				coef[v] = c
			}
			for v, c := range in {
				coef[v] = coef[v] - c
			}
			if len(coef) > 0 {
				prob.AddConstraint(coef, lp.EQ, 0)
			}
		}
	}
}

// addConversionConstraints encodes z ≥ (x1 + x2 − 1)·c for every allowed
// wavelength pair on consecutive links, and x1 + x2 ≤ 1 for disallowed
// pairs.
func (b *builder) addConversionConstraints(prob *lp.Problem, vars [][]int, zv map[[2]int]int) {
	net := b.net
	for key, z := range zv {
		e1, e2 := key[0], key[1]
		v := net.Link(e1).To
		conv := net.Converter(v)
		net.Link(e1).Avail().ForEach(func(l1 int) bool {
			x1 := vars[e1][l1]
			net.Link(e2).Avail().ForEach(func(l2 int) bool {
				x2 := vars[e2][l2]
				if l1 == l2 {
					return true // identity conversion is free
				}
				if !conv.Allowed(l1, l2) {
					prob.AddConstraint(map[int]float64{x1: 1, x2: 1}, lp.LE, 1)
					return true
				}
				c := conv.Cost(l1, l2)
				if c == 0 {
					return true
				}
				// z − c·x1 − c·x2 ≥ −c.
				prob.AddConstraint(map[int]float64{z: 1, x1: -c, x2: -c}, lp.GE, -c)
				return true
			})
			return true
		})
	}
}

// extractPath walks the selected variables from s to t and builds the
// semilightpath.
func (b *builder) extractPath(x []float64, vars [][]int) (*wdm.Semilightpath, bool) {
	net := b.net
	w := net.W()
	// next[u] = (link, λ) chosen leaving u, if any.
	type sel struct{ link, lam int }
	next := make(map[int]sel)
	for e := range vars {
		for lam := 0; lam < w; lam++ {
			v := vars[e][lam]
			if v >= 0 && x[v] > 0.5 {
				from := net.Link(e).From
				if _, dup := next[from]; dup {
					return nil, false
				}
				next[from] = sel{e, lam}
			}
		}
	}
	var hops []wdm.Hop
	at := b.s
	for at != b.t {
		s, okN := next[at]
		if !okN || len(hops) > net.Links() {
			return nil, false
		}
		delete(next, at)
		hops = append(hops, wdm.Hop{Link: s.link, Wavelength: s.lam})
		at = net.Link(s.link).To
	}
	// Selected variables not on the walk would be a cost-increasing cycle;
	// with strictly positive link costs the optimum has none, and if costs
	// are zero a dangling cycle does not change the objective. Accept.
	return &wdm.Semilightpath{Hops: hops}, true
}
