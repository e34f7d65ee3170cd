// Package check is the verification oracle behind the randomized testing
// subsystem: invariant validators that re-derive the paper's guarantees from
// first principles, a seeded random instance generator (gen.go) with
// iterative shrinking to minimal failing cases (shrink.go), and JSON failure
// artifacts (artifact.go).
//
// The validators deliberately recompute everything — path connectivity,
// wavelength installation and availability, conversion legality, the Eq. 1
// cost, and the Eq. 2 load bookkeeping — instead of delegating to the
// methods on wdm.Semilightpath, so a bug in the production accessors cannot
// hide itself from its own checker.
//
// The differential driver that routes generated instances through the
// production engines lives in the harness subpackage. Keeping it out of this
// package lets any test in the repository (including in-package tests of
// packages that internal/core depends on) import the validators without an
// import cycle.
package check

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/wdm"
)

// Path verifies from first principles that p is a connected directed walk
// from s to t whose every hop rides an installed wavelength and whose every
// implied conversion is allowed by the intermediate node's switch. Node
// revisits are permitted (a semilightpath may legally pass through a node
// twice when conversion makes it profitable); availability is not required —
// see PathAvailable and Reserved for the residual-state variants.
func Path(net *wdm.Network, p *wdm.Semilightpath, s, t int) error {
	if p == nil || len(p.Hops) == 0 {
		return fmt.Errorf("check: empty semilightpath")
	}
	if s < 0 || s >= net.Nodes() || t < 0 || t >= net.Nodes() {
		return fmt.Errorf("check: endpoints (%d,%d) out of range [0,%d)", s, t, net.Nodes())
	}
	at := s
	for i, h := range p.Hops {
		if h.Link < 0 || h.Link >= net.Links() {
			return fmt.Errorf("check: hop %d: link %d out of range [0,%d)", i, h.Link, net.Links())
		}
		l := net.Link(h.Link)
		if l.From != at {
			return fmt.Errorf("check: hop %d: link %d leaves node %d, walk is at %d", i, h.Link, l.From, at)
		}
		if h.Wavelength < 0 || h.Wavelength >= net.W() {
			return fmt.Errorf("check: hop %d: λ%d out of range [0,%d)", i, h.Wavelength, net.W())
		}
		if !l.Lambda().Contains(h.Wavelength) {
			return fmt.Errorf("check: hop %d: λ%d not installed on link %d", i, h.Wavelength, h.Link)
		}
		if i > 0 {
			prev := p.Hops[i-1].Wavelength
			if prev != h.Wavelength && !net.Converter(at).Allowed(prev, h.Wavelength) {
				return fmt.Errorf("check: hop %d: conversion λ%d→λ%d not allowed at node %d",
					i, prev, h.Wavelength, at)
			}
		}
		at = l.To
	}
	if at != t {
		return fmt.Errorf("check: walk ends at node %d, want %d", at, t)
	}
	return nil
}

// PathAvailable is Path plus the requirement that every hop's wavelength is
// currently in Λ_avail of its link — the state a freshly routed, not yet
// established pair must be in.
func PathAvailable(net *wdm.Network, p *wdm.Semilightpath, s, t int) error {
	if err := Path(net, p, s, t); err != nil {
		return err
	}
	for i, h := range p.Hops {
		if !net.Link(h.Link).HasAvail(h.Wavelength) {
			return fmt.Errorf("check: hop %d: λ%d on link %d is not available", i, h.Wavelength, h.Link)
		}
	}
	return nil
}

// Reserved verifies that every hop of p holds its channel: the wavelength is
// installed on the link but absent from Λ_avail — the state an established
// connection must be in.
func Reserved(net *wdm.Network, p *wdm.Semilightpath) error {
	if p == nil || len(p.Hops) == 0 {
		return fmt.Errorf("check: empty semilightpath")
	}
	for i, h := range p.Hops {
		if h.Link < 0 || h.Link >= net.Links() {
			return fmt.Errorf("check: hop %d: link %d out of range", i, h.Link)
		}
		l := net.Link(h.Link)
		if h.Wavelength < 0 || h.Wavelength >= net.W() || !l.Lambda().Contains(h.Wavelength) {
			return fmt.Errorf("check: hop %d: λ%d not installed on link %d", i, h.Wavelength, h.Link)
		}
		if l.HasAvail(h.Wavelength) {
			return fmt.Errorf("check: hop %d: λ%d on link %d is marked available but should be held", i, h.Wavelength, h.Link)
		}
	}
	return nil
}

// PathCost recomputes the Eq. 1 cost of p from first principles:
// Σ w(e_i, λ_i) + Σ c_{head(e_i)}(λ_i, λ_{i+1}), asking the converter
// directly (identity conversions are free by definition, disallowed ones
// cost +Inf). It assumes the path already passed Path.
func PathCost(net *wdm.Network, p *wdm.Semilightpath) float64 {
	c := 0.0
	for i, h := range p.Hops {
		c += net.Link(h.Link).Cost(h.Wavelength)
		if i > 0 {
			prev := p.Hops[i-1].Wavelength
			if prev != h.Wavelength {
				v := net.Link(p.Hops[i-1].Link).To
				if !net.Converter(v).Allowed(prev, h.Wavelength) {
					return math.Inf(1)
				}
				c += net.Converter(v).Cost(prev, h.Wavelength)
			}
		}
	}
	return c
}

// Cost verifies that the reported Eq. 1 cost of p matches the
// first-principles recomputation within eps (absolute + relative).
func Cost(net *wdm.Network, p *wdm.Semilightpath, reported float64) error {
	want := PathCost(net, p)
	if !ApproxEq(want, reported) {
		return fmt.Errorf("check: reported cost %g, Eq. 1 recomputation gives %g", reported, want)
	}
	return nil
}

// EdgeDisjoint verifies that p and q share no physical link (§3,
// edge-disjointness of primary and backup).
func EdgeDisjoint(p, q *wdm.Semilightpath) error {
	seen := make(map[int]bool, len(p.Hops))
	for _, h := range p.Hops {
		seen[h.Link] = true
	}
	for _, h := range q.Hops {
		if seen[h.Link] {
			return fmt.Errorf("check: paths share link %d", h.Link)
		}
	}
	return nil
}

// NodeDisjoint verifies that p and q share no intermediate node (the
// stronger protection discipline of ApproxMinCostNodeDisjoint); the shared
// endpoints s and t are exempt.
func NodeDisjoint(net *wdm.Network, p, q *wdm.Semilightpath, s, t int) error {
	seen := map[int]bool{}
	for _, v := range p.Nodes(net) {
		if v != s && v != t {
			seen[v] = true
		}
	}
	for _, v := range q.Nodes(net) {
		if v != s && v != t && seen[v] {
			return fmt.Errorf("check: paths share intermediate node %d", v)
		}
	}
	return nil
}

// PairLoad recomputes max over the links of the given paths of (U(e)+1)/N(e)
// — the network-load contribution the pair would have if established on the
// current residual state (the Result.PathLoad bookkeeping).
func PairLoad(net *wdm.Network, paths ...*wdm.Semilightpath) float64 {
	rho := 0.0
	for _, p := range paths {
		for _, h := range p.Hops {
			l := net.Link(h.Link)
			if r := float64(l.U()+1) / float64(l.N()); r > rho {
				rho = r
			}
		}
	}
	return rho
}

// LoadAccounting audits the residual-state bookkeeping of the whole network:
// on every link Λ_avail(e) ⊆ Λ(e), the derived U(e) and ρ(e) agree with the
// set cardinalities, per-link loads lie in [0, 1], and NetworkLoad — the ρ
// wdm.Network keeps up to date on every Use and Release — equals the
// recomputed maximum (Eq. 2) exactly: both are the maximum of the same
// float values.
func LoadAccounting(net *wdm.Network) error {
	maxLoad := 0.0
	for id := 0; id < net.Links(); id++ {
		l := net.Link(id)
		subset := true
		avail := 0
		l.Avail().ForEach(func(lam int) bool {
			avail++
			if !l.Lambda().Contains(lam) {
				subset = false
				return false
			}
			return true
		})
		if !subset {
			return fmt.Errorf("check: link %d: Λ_avail ⊄ Λ", id)
		}
		n := l.Lambda().Count()
		if got := l.N(); got != n {
			return fmt.Errorf("check: link %d: N() = %d, |Λ| = %d", id, got, n)
		}
		if got := l.U(); got != n-avail {
			return fmt.Errorf("check: link %d: U() = %d, |Λ|−|Λ_avail| = %d", id, got, n-avail)
		}
		load := 1.0
		if n > 0 {
			load = float64(n-avail) / float64(n)
		}
		if got := l.Load(); math.Abs(got-load) > 1e-12 {
			return fmt.Errorf("check: link %d: Load() = %g, recomputed ρ = %g", id, got, load)
		}
		if load < 0 || load > 1 {
			return fmt.Errorf("check: link %d: ρ = %g outside [0,1]", id, load)
		}
		if n > 0 && load > maxLoad {
			maxLoad = load
		}
	}
	if got := net.NetworkLoad(); got != maxLoad {
		return fmt.Errorf("check: NetworkLoad() = %g, recomputed max ρ = %g", got, maxLoad)
	}
	return nil
}

// GraphPath verifies that path (a sequence of edge IDs) is a connected walk
// from s to t in g using no disabled edge.
func GraphPath(g *graph.Graph, path []int, s, t int) error {
	if len(path) == 0 {
		return fmt.Errorf("check: empty path")
	}
	at := s
	for i, id := range path {
		if id < 0 || id >= g.M() {
			return fmt.Errorf("check: hop %d: edge %d out of range [0,%d)", i, id, g.M())
		}
		if g.Disabled(id) {
			return fmt.Errorf("check: hop %d: edge %d is disabled", i, id)
		}
		e := g.Edge(id)
		if e.From != at {
			return fmt.Errorf("check: hop %d: edge %d leaves node %d, walk is at %d", i, id, e.From, at)
		}
		at = e.To
	}
	if at != t {
		return fmt.Errorf("check: path ends at node %d, want %d", at, t)
	}
	return nil
}

// GraphPairDisjoint verifies that two edge-ID paths share no edge.
func GraphPairDisjoint(p1, p2 []int) error {
	seen := make(map[int]bool, len(p1))
	for _, id := range p1 {
		seen[id] = true
	}
	for _, id := range p2 {
		if seen[id] {
			return fmt.Errorf("check: paths share edge %d", id)
		}
	}
	return nil
}

// GraphPair verifies a disjoint-pair result on a plain weighted graph: both
// paths valid s→t walks, edge-disjointness, and the reported weight equal to
// the recomputed sum of edge weights.
func GraphPair(g *graph.Graph, p1, p2 []int, s, t int, weight float64) error {
	if err := GraphPath(g, p1, s, t); err != nil {
		return fmt.Errorf("path1: %w", err)
	}
	if err := GraphPath(g, p2, s, t); err != nil {
		return fmt.Errorf("path2: %w", err)
	}
	if err := GraphPairDisjoint(p1, p2); err != nil {
		return err
	}
	sum := 0.0
	for _, id := range p1 {
		sum += g.Edge(id).Weight
	}
	for _, id := range p2 {
		sum += g.Edge(id).Weight
	}
	if !ApproxEq(sum, weight) {
		return fmt.Errorf("check: reported pair weight %g, recomputed %g", weight, sum)
	}
	return nil
}

// ApproxEq compares floats with a mixed absolute/relative tolerance, the
// one the validators and the differential harness share. Both infinite
// (same sign) compares equal.
func ApproxEq(a, b float64) bool {
	if a == b {
		return true
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) || math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	tol := 1e-9 * math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= tol
}
