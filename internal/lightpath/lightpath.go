// Package lightpath finds optimal semilightpaths — minimum-cost paths with
// wavelength assignment and conversion-switch settings per Eq. 1 — using the
// layered-graph Dijkstra of Liang & Shen [13] and Chlamtac et al. [5]: the
// search state is (node, incoming wavelength), transitions pay the conversion
// cost c_v(λ, λ') plus the traversal cost w(e, λ'). With an indexed heap the
// running time is O(nW² + mW + nW log(nW)), the term the paper's Theorem 1
// charges to this step.
package lightpath

import (
	"math"

	"repro/internal/pq"
	"repro/internal/wdm"
)

// Options configures the search.
type Options struct {
	// AllowedLinks, when non-nil, restricts the search to links for which it
	// returns true: the two-step baseline and the simulator's re-protection
	// route around a primary's links with it.
	AllowedLinks func(linkID int) bool
}

// Optimal returns a minimum-cost semilightpath from s to t in the residual
// network, its cost, and whether one exists. The path is optimal over all
// walks from s to t given the conversion tables; since all costs are
// non-negative the optimum is realized by a path.
//
//wdm:coldpath exact DP solver builds per-call tables by design; the serving path uses AssignInto
func Optimal(g *wdm.Network, s, t int, opts *Options) (*wdm.Semilightpath, float64, bool) {
	if opts == nil {
		opts = &Options{}
	}
	if s == t || s < 0 || t < 0 || s >= g.Nodes() || t >= g.Nodes() {
		return nil, math.Inf(1), false
	}
	w := g.W()
	numStates := g.Nodes() * w

	dist := make([]float64, numStates)
	prevState := make([]int, numStates)
	prevLink := make([]int, numStates)
	for i := range dist {
		dist[i] = math.Inf(1)
		prevState[i] = -1
		prevLink[i] = -1
	}

	h := pq.NewIndexedHeap(numStates)

	// Seed: leave s on each out-link/wavelength; the source imposes no
	// incoming wavelength, so no conversion cost is paid at s.
	for _, id := range g.Out(s) {
		if opts.AllowedLinks != nil && !opts.AllowedLinks(id) {
			continue
		}
		l := g.Link(id)
		l.Avail().ForEach(func(lam int) bool {
			st := l.To*w + lam
			c := l.Cost(lam)
			if c < dist[st] {
				dist[st] = c
				prevState[st] = -1
				prevLink[st] = id
				h.PushOrDecrease(st, c)
			}
			return true
		})
	}

	best := math.Inf(1)
	bestState := -1
	for !h.Empty() {
		st, d := h.Pop()
		if d > dist[st] {
			continue
		}
		v, lam := st/w, st%w
		if v == t {
			if d < best {
				best = d
				bestState = st
			}
			// States are popped in non-decreasing distance order, so the
			// first t-state popped is optimal.
			break
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
				nd := d + cc + l.Cost(nlam)
				nst := l.To*w + nlam
				if nd < dist[nst] {
					dist[nst] = nd
					prevState[nst] = st
					prevLink[nst] = id
					h.PushOrDecrease(nst, nd)
				}
				return true
			})
		}
	}

	if bestState < 0 {
		return nil, math.Inf(1), false
	}

	// Reconstruct hops back from bestState.
	var rev []wdm.Hop
	st := bestState
	for st >= 0 {
		rev = append(rev, wdm.Hop{Link: prevLink[st], Wavelength: st % w})
		st = prevState[st]
	}
	hops := make([]wdm.Hop, len(rev))
	for i := range rev {
		hops[i] = rev[len(rev)-1-i]
	}
	return &wdm.Semilightpath{Hops: hops}, best, true
}

// AssignWavelengths finds the optimal wavelength assignment for a FIXED
// physical route (sequence of link IDs) by dynamic programming over
// (position, wavelength) states, and returns the resulting semilightpath and
// its Eq. 1 cost. Exists is false when no hop-by-hop assignment with allowed
// conversions is possible. Only currently-available wavelengths are used.
//
// This is the oracle used by the exhaustive exact solver: once the two
// edge-disjoint routes are fixed, wavelength assignment decomposes per path.
func AssignWavelengths(g *wdm.Network, route []int) (*wdm.Semilightpath, float64, bool) {
	var ws AssignWorkspace
	hops, cost, ok := AssignInto(&ws, g, route, nil)
	if !ok {
		return nil, math.Inf(1), false
	}
	//wdmlint:ignore hotalloc per-result header for the non-workspace API; hot callers use AssignInto
	return &wdm.Semilightpath{Hops: hops}, cost, true
}

// AssignWorkspace holds the DP state AssignInto reuses across calls. The zero
// value is ready; buffers grow to the largest route length × W seen.
type AssignWorkspace struct {
	dp, ndp []float64
	prev    []int32 // prev[i*w+lam] = predecessor wavelength of hop i at λ=lam
}

// AssignInto is AssignWavelengths with caller-owned storage: the DP state
// lives in ws and the hop sequence is written into hops (grown if needed), so
// a warm call allocates nothing. The returned slice aliases hops' backing
// array; wrap it in a Semilightpath or copy it out as needed.
//
//wdm:hotpath
func AssignInto(ws *AssignWorkspace, g *wdm.Network, route []int, hops []wdm.Hop) ([]wdm.Hop, float64, bool) {
	if len(route) == 0 {
		return hops[:0], math.Inf(1), false
	}
	w := g.W()
	if cap(ws.dp) < w {
		ws.dp = make([]float64, w)
		ws.ndp = make([]float64, w)
	}
	// dp[lam] = best cost of the prefix ending with wavelength lam on the
	// current link.
	dp, ndp := ws.dp[:w], ws.ndp[:w]
	if cap(ws.prev) < len(route)*w {
		ws.prev = make([]int32, len(route)*w)
	}
	prev := ws.prev[:len(route)*w]
	for i := range prev {
		prev[i] = -1
	}
	for lam := 0; lam < w; lam++ {
		dp[lam] = math.Inf(1)
	}
	first := g.Link(route[0])
	for av, lam := first.Avail(), first.Avail().Min(); lam >= 0; lam = av.NextAfter(lam) {
		dp[lam] = first.Cost(lam)
	}
	for i := 1; i < len(route); i++ {
		l := g.Link(route[i])
		prevLink := g.Link(route[i-1])
		if prevLink.To != l.From {
			return hops[:0], math.Inf(1), false // not a connected route
		}
		for lam := 0; lam < w; lam++ {
			ndp[lam] = math.Inf(1)
		}
		row := prev[i*w : (i+1)*w]
		if full, ok := g.Converter(l.From).(*wdm.FullConverter); ok {
			stepFull(dp, ndp, row, l, full.UniformCost())
		} else {
			stepGeneric(dp, ndp, row, l, g.Converter(l.From))
		}
		dp, ndp = ndp, dp
	}
	best := math.Inf(1)
	bestLam := -1
	for lam := 0; lam < w; lam++ {
		if dp[lam] < best {
			best = dp[lam]
			bestLam = lam
		}
	}
	if bestLam < 0 {
		return hops[:0], math.Inf(1), false
	}
	if cap(hops) < len(route) {
		hops = make([]wdm.Hop, len(route))
	} else {
		hops = hops[:len(route)]
	}
	lam := bestLam
	for i := len(route) - 1; i >= 0; i-- {
		hops[i] = wdm.Hop{Link: route[i], Wavelength: lam}
		lam = int(prev[i*w+lam])
	}
	return hops, best, true
}

// stepGeneric is one hop of the AssignInto DP under any converter: for every
// available λ′ on l it sets ndp[λ′] = min_λ dp[λ] + c(λ, λ′) + w(l, λ′) over
// the allowed conversions and records in row[λ′] the smallest λ attaining it.
// O(W) converter calls per available λ′.
func stepGeneric(dp, ndp []float64, row []int32, l *wdm.Link, conv wdm.Converter) {
	for av, nlam := l.Avail(), l.Avail().Min(); nlam >= 0; nlam = av.NextAfter(nlam) {
		base := l.Cost(nlam)
		for lam := range dp {
			if math.IsInf(dp[lam], 1) {
				continue
			}
			var cc float64
			if lam != nlam {
				if !conv.Allowed(lam, nlam) {
					continue
				}
				cc = conv.Cost(lam, nlam)
			}
			if c := dp[lam] + cc + base; c < ndp[nlam] {
				ndp[nlam] = c
				row[nlam] = int32(lam)
			}
		}
	}
}

// stepFull is stepGeneric for a full-range converter whose every
// non-identity conversion costs c, with bit-identical results. The best
// conversion into λ′ comes from the smallest dp[λ]+c over λ ≠ λ′, which is
// the overall minimum unless λ′ is its argmin, and then the runner-up; so a
// λ′ costs O(1) when the identity strictly wins. When a conversion ties with
// or beats it, a scan finds the smallest λ attaining the minimum, the
// generic step's tie-break: adding w(l, λ′) can round distinct dp[λ]+c to
// one value, so the argmin alone does not decide it.
func stepFull(dp, ndp []float64, row []int32, l *wdm.Link, c float64) {
	inf := math.Inf(1)
	arg, m1, m2 := -1, inf, inf
	for lam, d := range dp {
		if math.IsInf(d, 1) {
			continue
		}
		if x := d + c; x < m1 {
			arg, m1, m2 = lam, x, m1
		} else if x < m2 {
			m2 = x
		}
	}
	for av, nlam := l.Avail(), l.Avail().Min(); nlam >= 0; nlam = av.NextAfter(nlam) {
		base := l.Cost(nlam)
		// The identity adds a zero conversion cost, as the generic step
		// does, so a −0 cost rounds the same way.
		ident := dp[nlam] + 0 + base
		m := m1
		if nlam == arg {
			m = m2
		}
		best := m + base
		if !(best <= ident) {
			if ident < inf {
				ndp[nlam], row[nlam] = ident, int32(nlam)
			}
			continue
		}
		if best == inf {
			continue // nothing reaches λ′
		}
		for lam, d := range dp {
			cc := c
			if lam == nlam {
				cc = 0
			}
			// Store the value this λ yields: it equals best, but the two
			// may differ in the sign of a zero.
			if v := d + cc + base; v == best {
				ndp[nlam], row[nlam] = v, int32(lam)
				break
			}
		}
	}
}
