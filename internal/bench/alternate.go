package bench

import (
	"repro/internal/auxgraph"
	"repro/internal/core"
	"repro/internal/disjoint"
	"repro/internal/lightpath"
	"repro/internal/wdm"
)

// AlternateTable is E14's baseline, fixed-alternate robust routing: a ranked
// list of edge-disjoint route pairs is precomputed per node pair on the idle
// network, and at request time the first pair whose wavelengths are
// currently assignable wins. This is the classic cheap-lookup baseline the
// paper's adaptive algorithms (which recompute routes on the live residual
// network) are implicitly compared against [16]. It plugs into the simulator
// as a netsim.Config.RouteFunc.
type AlternateTable struct {
	// routes[s*n+t] lists up to k candidate (primaryRoute, backupRoute)
	// link-ID pairs in increasing idle-network cost order.
	routes [][][2][]int
	n      int
}

// BuildAlternateTable precomputes up to k alternate route pairs for every
// ordered node pair. Successive alternates use pairwise link-disjoint route
// sets (each alternate is itself an edge-disjoint pair; the j-th alternate
// avoids all links of alternates 1..j−1), so a busy first choice leaves the
// later ones usable. Building is quadratic in nodes; intended to run once at
// network commissioning.
func BuildAlternateTable(net *wdm.Network, k int) *AlternateTable {
	if k <= 0 {
		k = 1
	}
	n := net.Nodes()
	tbl := &AlternateTable{n: n, routes: make([][][2][]int, n*n)}
	sk := auxgraph.NewSharedSkeleton(net)
	var ws disjoint.Workspace
	for s := 0; s < n; s++ {
		for t := 0; t < n; t++ {
			if s == t {
				continue
			}
			// Each ReweightAt re-enables the link edges the previous pair's
			// alternates disabled.
			a := sk.ReweightAt(s, t, auxgraph.Params{Kind: auxgraph.Cost})
			excluded := map[int]bool{}
			for alt := 0; alt < k; alt++ {
				// Disable aux link edges of already-used physical links.
				for id := 0; id < a.G.M(); id++ {
					aux := a.G.Edge(id).Aux
					if aux >= 0 && excluded[aux] {
						a.G.Disable(id)
					}
				}
				pair, ok := ws.Suurballe(a.G, a.S, a.T)
				if !ok {
					break
				}
				r1 := a.MapPath(pair.Path1)
				r2 := a.MapPath(pair.Path2)
				tbl.routes[s*n+t] = append(tbl.routes[s*n+t], [2][]int{r1, r2})
				for _, id := range r1 {
					excluded[id] = true
				}
				for _, id := range r2 {
					excluded[id] = true
				}
			}
		}
	}
	return tbl
}

// Route serves a request from the precomputed table: the first alternate
// whose two routes admit a wavelength assignment on the current residual
// network is returned. ok is false when every alternate is blocked.
func (tbl *AlternateTable) Route(net *wdm.Network, s, t int) (*core.Result, bool) {
	if s < 0 || t < 0 || s >= tbl.n || t >= tbl.n || s == t {
		return nil, false
	}
	for _, cand := range tbl.routes[s*tbl.n+t] {
		p1, c1, ok1 := lightpath.AssignWavelengths(net, cand[0])
		if !ok1 {
			continue
		}
		p2, c2, ok2 := lightpath.AssignWavelengths(net, cand[1])
		if !ok2 {
			continue
		}
		//wdmlint:ignore hotalloc per-admission result object; covered by the sim alloc budget
		res := &core.Result{
			Primary:   p1,
			Backup:    p2,
			Cost:      c1 + c2,
			NaiveCost: c1 + c2,
		}
		if c2 < c1 {
			res.Primary, res.Backup = res.Backup, res.Primary
		}
		res.PathLoad = pathLoad(net, res.Primary, res.Backup)
		return res, true
	}
	return nil, false
}

// pathLoad computes max (U(e)+1)/N(e) over the links of both paths, as the
// Router does for its own results.
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
