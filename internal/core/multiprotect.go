package core

import (
	"repro/internal/auxgraph"
	"repro/internal/disjoint"
	"repro/internal/lightpath"
	"repro/internal/wdm"
)

// MultiResult is a k-protected connection: one primary plus k−1 pre-reserved
// backups, all pairwise edge-disjoint, surviving any k−1 simultaneous link
// failures. The paper's problem is the k = 2 instance.
type MultiResult struct {
	// Paths holds the k semilightpaths in ascending cost order; Paths[0]
	// serves as primary.
	Paths []*wdm.Semilightpath
	// Cost is the Eq. 1 cost sum over all k paths.
	Cost float64
	// AuxWeight is the auxiliary-graph weight of the chosen path set.
	AuxWeight float64
}

// ApproxMinCostK generalises §3.3 to k pairwise edge-disjoint
// semilightpaths: the §3.3.1 auxiliary graph is searched with the
// successive-shortest-paths generalisation of Suurballe (KDisjoint), and
// each mapped route gets the Lemma 2 optimal wavelength assignment. k = 2
// reproduces ApproxMinCost up to path ordering. ok is false when fewer than
// k edge-disjoint semilightpaths exist.
func ApproxMinCostK(net *wdm.Network, s, t, k int) (*MultiResult, bool) {
	if k <= 0 {
		return nil, false
	}
	a := auxgraph.NewSharedSkeleton(net).ReweightAt(s, t, auxgraph.Params{Kind: auxgraph.Cost})
	kp, ok := disjoint.KDisjoint(a.G, a.S, a.T, k)
	if !ok {
		return nil, false
	}
	res := &MultiResult{AuxWeight: kp.Weight}
	for _, auxPath := range kp.Paths {
		route := a.MapPath(auxPath)
		if len(route) == 0 {
			return nil, false
		}
		p, c, okA := lightpath.AssignWavelengths(net, route)
		if !okA {
			// Restricted conversion can defeat the refinement; fall back to
			// first-fit before giving up.
			var hops []wdm.Hop
			p, c = firstFitInto(net, route, new(wdm.Semilightpath), &hops)
			if p == nil {
				return nil, false
			}
		}
		res.Paths = append(res.Paths, p)
		res.Cost += c
	}
	// Ascending cost order: cheapest path serves as primary.
	for i := 1; i < len(res.Paths); i++ {
		for j := i; j > 0 && res.Paths[j].Cost(net) < res.Paths[j-1].Cost(net); j-- {
			res.Paths[j], res.Paths[j-1] = res.Paths[j-1], res.Paths[j]
		}
	}
	return res, true
}

// SurvivesFailures reports whether the k-protected connection still has a
// usable path when the given links are all down simultaneously.
func (r *MultiResult) SurvivesFailures(downLinks map[int]bool) bool {
	for _, p := range r.Paths {
		hit := false
		for _, h := range p.Hops {
			if downLinks[h.Link] {
				hit = true
				break
			}
		}
		if !hit {
			return true
		}
	}
	return false
}
