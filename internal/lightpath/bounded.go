package lightpath

import (
	"math"

	"repro/internal/wdm"
)

// OptimalBounded returns a minimum-cost semilightpath from s to t using at
// most maxHops links — the delay-constrained variant (§2 counts "the time
// delay on a route" among the network resources; hop count is its standard
// proxy in the RWA literature). The search is a Bellman–Ford-style dynamic
// program over (hops, node, wavelength) states, O(maxHops · mW²) time.
// ok is false when no path within the bound exists.
func OptimalBounded(g *wdm.Network, s, t, maxHops int, opts *Options) (*wdm.Semilightpath, float64, bool) {
	if opts == nil {
		opts = &Options{}
	}
	if s == t || s < 0 || t < 0 || s >= g.Nodes() || t >= g.Nodes() || maxHops <= 0 {
		return nil, math.Inf(1), false
	}
	w := g.W()
	numStates := g.Nodes() * w

	// dp[st] = best cost to reach state st = v*w+λ using exactly the hops
	// processed so far (rolling layers). prev[h][st] records the (state,
	// link) that reached st at layer h.
	type pred struct{ state, link int }
	dp := make([]float64, numStates)
	ndp := make([]float64, numStates)
	for i := range dp {
		dp[i] = math.Inf(1)
	}
	preds := make([][]pred, maxHops+1)

	// Layer 1: leave s.
	layer1 := make([]pred, numStates)
	for i := range layer1 {
		layer1[i] = pred{state: -1, link: -1}
	}
	for _, id := range g.Out(s) {
		if opts.AllowedLinks != nil && !opts.AllowedLinks(id) {
			continue
		}
		l := g.Link(id)
		l.Avail().ForEach(func(lam int) bool {
			st := l.To*w + lam
			if c := l.Cost(lam); c < dp[st] {
				dp[st] = c
				layer1[st] = pred{state: -1, link: id}
			}
			return true
		})
	}
	preds[1] = layer1

	// best[st] = cheapest cost to reach st within ANY processed layer, and
	// the layer achieving it — needed to reconstruct the cheapest ≤-bound
	// path ending at t.
	bestCost := math.Inf(1)
	bestState, bestLayer := -1, -1
	scanT := func(layer int, costs []float64) {
		for lam := 0; lam < w; lam++ {
			st := t*w + lam
			if costs[st] < bestCost {
				bestCost = costs[st]
				bestState = st
				bestLayer = layer
			}
		}
	}
	scanT(1, dp)

	for h := 2; h <= maxHops; h++ {
		layer := make([]pred, numStates)
		for i := range ndp {
			ndp[i] = math.Inf(1)
			layer[i] = pred{state: -1, link: -1}
		}
		for st, c := range dp {
			if math.IsInf(c, 1) {
				continue
			}
			v, lam := st/w, st%w
			if v == t {
				continue // no need to extend beyond the destination
			}
			conv := g.Converter(v)
			for _, id := range g.Out(v) {
				if opts.AllowedLinks != nil && !opts.AllowedLinks(id) {
					continue
				}
				l := g.Link(id)
				l.Avail().ForEach(func(nlam int) bool {
					var cc float64
					if nlam != lam {
						if !conv.Allowed(lam, nlam) {
							return true
						}
						cc = conv.Cost(lam, nlam)
					}
					nst := l.To*w + nlam
					if nc := c + cc + l.Cost(nlam); nc < ndp[nst] {
						ndp[nst] = nc
						layer[nst] = pred{state: st, link: id}
					}
					return true
				})
			}
		}
		dp, ndp = ndp, dp
		preds[h] = layer
		scanT(h, dp)
	}

	if bestState < 0 {
		return nil, math.Inf(1), false
	}
	// Reconstruct from (bestLayer, bestState).
	hops := make([]wdm.Hop, bestLayer)
	st := bestState
	for h := bestLayer; h >= 1; h-- {
		p := preds[h][st]
		hops[h-1] = wdm.Hop{Link: p.link, Wavelength: st % w}
		st = p.state
	}
	return &wdm.Semilightpath{Hops: hops}, bestCost, true
}
