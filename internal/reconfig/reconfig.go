// Package reconfig implements the network reconfiguration the paper's §4
// motivates avoiding: given a loaded network and its live connections,
// re-route connections to minimise the network load ρ = max_e U(e)/N(e)
// (the objective of Narula-Tam & Modiano [18] and Acampora [1], cited in
// §1). During a real reconfiguration the network is frozen, so the optimizer
// also reports how many connections had to move — the disruption §4's
// load-aware routing reduces the need for.
//
// The optimizer is an iterated local search: connections riding the most
// loaded links are rerouted in their conns.Table with the load-minimising
// router, the same move netsim makes when ρ crosses its reconfiguration
// threshold; a move is kept only if ρ (with the number of maximally-loaded
// links as tie-break) strictly improves, and is otherwise moved back.
package reconfig

import (
	"slices"
	"sort"

	"repro/internal/conns"
	"repro/internal/core"
	"repro/internal/wdm"
)

// maxRounds bounds the improvement rounds of one Optimize call.
const maxRounds = 10

// Result reports a reconfiguration run.
type Result struct {
	// LoadBefore and LoadAfter are ρ before and after.
	LoadBefore float64
	LoadAfter  float64
	// Moves counts connections that ended on different routes.
	Moves int
	// Rounds counts improvement rounds executed.
	Rounds int
}

// state captures ρ plus the count of links at ρ (lexicographic objective).
func state(net *wdm.Network) (float64, int) {
	rho := net.NetworkLoad()
	at := 0
	for id := 0; id < net.Links(); id++ {
		l := net.Link(id)
		if l.N() == 0 {
			continue
		}
		if l.Load() >= rho-1e-12 {
			at++
		}
	}
	return rho, at
}

// Optimize reroutes the table's connections until the network load stops
// improving or maxRounds rounds have run.
func Optimize(tab *conns.Table[struct{}]) *Result {
	net := tab.Network()
	res := &Result{LoadBefore: net.NetworkLoad()}
	moved := map[int64]bool{}
	router := core.NewRouter(nil)
	step := func(c *conns.Conn[struct{}]) (conns.Pair, bool) {
		r, ok := router.MinLoad(net, c.Src, c.Dst)
		if !ok {
			return conns.Pair{}, false
		}
		return r.Pair(), true
	}

	for round := 0; round < maxRounds; round++ {
		rho, ties := state(net)
		if rho == 0 {
			break
		}
		// Connections on maximally loaded links, most loaded first.
		type cand struct {
			id   int64
			load float64
		}
		var cands []cand
		for _, id := range tab.IDs(nil) {
			c, _ := tab.Get(id)
			maxL := 0.0
			for _, hops := range [2][]wdm.Hop{c.Primary, c.Backup} {
				for _, h := range hops {
					if l := net.Link(h.Link).Load(); l > maxL {
						maxL = l
					}
				}
			}
			if maxL >= rho-1e-12 {
				cands = append(cands, cand{id: id, load: maxL})
			}
		}
		// IDs ascend, so the stable sort breaks load ties by ID.
		sort.SliceStable(cands, func(i, j int) bool {
			return cands[i].load > cands[j].load
		})
		improvedRound := false
		for _, cd := range cands {
			c, _ := tab.Get(cd.id)
			// Reroute overwrites the record's hop slices, so keep a copy to
			// move back to.
			old := conns.Pair{Primary: slices.Clone(c.Primary), Backup: slices.Clone(c.Backup)}
			if _, err := tab.Reroute(cd.id, conns.Pair{}, step); err != nil {
				continue // no pair: the table kept the old one
			}
			nrho, nties := state(net)
			if nrho < rho-1e-12 || (nrho <= rho+1e-12 && nties < ties) {
				if !slices.Equal(old.Primary, c.Primary) || !slices.Equal(old.Backup, c.Backup) {
					moved[cd.id] = true
				}
				rho, ties = nrho, nties
				improvedRound = true
				continue
			}
			// No improvement: move back. The error is dropped because the
			// old channels were free a moment ago and nothing else has run
			// since, so the move cannot conflict.
			_, _ = tab.Reroute(cd.id, old, nil)
		}
		res.Rounds++
		if !improvedRound {
			break
		}
	}
	res.LoadAfter = net.NetworkLoad()
	res.Moves = len(moved)
	return res
}
