package core

import (
	"repro/internal/lightpath"
	"repro/internal/wdm"
)

// ApproxMinCostSRLG routes (s, t) with a backup that is both edge-disjoint
// and SRLG-disjoint from the primary: the backup avoids every link sharing a
// risk group with any primary link, so a conduit or duct cut that takes out
// several fibers at once still leaves the backup intact.
//
// Joint SRLG-disjoint pair optimisation is NP-hard even without wavelengths,
// so this uses the standard active-path-first heuristic hardened with
// k-shortest retries: candidate primaries are enumerated in cost order (up
// to maxPrimaries, default 8) and the first admitting an SRLG-disjoint
// backup wins. ok is false when no candidate works — which can happen even
// if a joint solution exists (the heuristic's known gap; the trap tests
// exercise it).
func ApproxMinCostSRLG(net *wdm.Network, s, t int, maxPrimaries int) (*Result, bool) {
	if maxPrimaries <= 0 {
		maxPrimaries = 8
	}
	primaries := lightpath.KShortest(net, s, t, maxPrimaries)
	for _, primary := range primaries {
		// Membership map plus a hop-ordered ID list: the risk scan iterates
		// the list so candidate filtering is deterministic (mapdet).
		pLinks := map[int]bool{}
		pIDs := make([]int, 0, len(primary.Hops))
		for _, h := range primary.Hops {
			if !pLinks[h.Link] {
				pLinks[h.Link] = true
				pIDs = append(pIDs, h.Link)
			}
		}
		allowed := func(id int) bool {
			if pLinks[id] {
				return false
			}
			for _, pl := range pIDs {
				if net.SharesRisk(id, pl) {
					return false
				}
			}
			return true
		}
		backup, bCost, ok := lightpath.Optimal(net, s, t, &lightpath.Options{AllowedLinks: allowed})
		if !ok {
			continue
		}
		pCost := primary.Cost(net)
		res := &Result{
			Primary:   primary,
			Backup:    backup,
			Cost:      pCost + bCost,
			NaiveCost: pCost + bCost,
		}
		if bCost < pCost {
			res.Primary, res.Backup = res.Backup, res.Primary
		}
		res.PathLoad = pathLoad(net, res.Primary, res.Backup)
		return res, true
	}
	return nil, false
}
