// Package provision solves the static-traffic counterpart of the paper's
// problem (§1 cites it via Nagatsu et al. and Alanyali–Ayanoglu): given a
// batch of demands known in advance, establish a robust (primary + backup)
// pair for every demand, minimising total cost. Unlike the paper's online
// setting, an offline provisioner may afford more computation, so after the
// sequential first pass it runs local-improvement passes that re-route one
// connection at a time while the others stay pinned. Every placement is a
// connection in a conns.Table, so channels move only through the table's
// all-or-nothing operations.
package provision

import (
	"math"
	"sort"

	"repro/internal/conns"
	"repro/internal/core"
	"repro/internal/lightpath"
	"repro/internal/wdm"
)

// Demand is one provisioning request.
type Demand struct {
	ID  int
	Src int
	Dst int
}

// Order selects the sequential routing order of the first pass.
type Order int

const (
	// InOrder provisions demands in input order.
	InOrder Order = iota
	// LongestFirst provisions demands with the longest shortest-path first —
	// long connections are the hardest to place, so they go while the
	// network is empty.
	LongestFirst
	// ShortestFirst provisions the shortest demands first (maximises the
	// count of placed demands under scarcity).
	ShortestFirst
)

// Config tunes Provision.
type Config struct {
	// Algorithm routes every demand (core.Router.Route).
	Algorithm core.Algorithm
	Order     Order
	// ImprovePasses re-routes every placed demand this many times after the
	// first pass, keeping strictly cheaper routings (0 = no improvement).
	ImprovePasses int
}

// Placement is the outcome for one demand.
type Placement struct {
	Demand Demand
	Route  *core.Result // nil when the demand could not be placed
}

// Result summarises a provisioning run.
type Result struct {
	// Placements holds one entry per demand, in input order. Their routes
	// describe the layout at the end of Provision; after a reconfiguration
	// (reconfig.Optimize, the facade's Reoptimize) moves the table's
	// connections, Table is the live state.
	Placements []Placement
	// Table holds every placed demand as a connection whose ID is the
	// demand's index in the input slice. It owns the network Provision was
	// given.
	Table  *conns.Table[struct{}]
	Placed int
	Failed int
	// TotalCost is the Eq. 1 cost sum over all placed pairs.
	TotalCost float64
	// NetworkLoad is ρ after all placements.
	NetworkLoad float64
	// Improved counts re-routings accepted during improvement passes.
	Improved int
}

// Provision routes the batch on the given network, reserving capacity as it
// goes. The network is mutated (placed demands stay reserved) and owned by
// Result.Table from then on; pass a clone to keep the original pristine.
func Provision(net *wdm.Network, demands []Demand, cfg Config) *Result {
	order := make([]int, len(demands))
	for i := range order {
		order[i] = i
	}
	switch cfg.Order {
	case LongestFirst, ShortestFirst:
		// Rank by current shortest semilightpath cost (∞ if unroutable).
		rank := make([]float64, len(demands))
		for i, d := range demands {
			if _, c, ok := lightpath.Optimal(net, d.Src, d.Dst, nil); ok {
				rank[i] = c
			} else {
				rank[i] = math.Inf(1)
			}
		}
		sort.SliceStable(order, func(a, b int) bool {
			if cfg.Order == LongestFirst {
				return rank[order[a]] > rank[order[b]]
			}
			return rank[order[a]] < rank[order[b]]
		})
	}

	tab := conns.New[struct{}](net)
	res := &Result{Placements: make([]Placement, len(demands)), Table: tab}
	for i, d := range demands {
		res.Placements[i] = Placement{Demand: d}
	}
	eng := core.NewRouter(nil)
	// place routes demand idx and admits it; false leaves it unplaced.
	place := func(idx int) bool {
		d := demands[idx]
		r, ok := eng.Route(cfg.Algorithm, net, d.Src, d.Dst)
		if !ok {
			return false
		}
		if _, err := tab.Admit(int64(idx), d.Src, d.Dst, r.Pair()); err != nil {
			return false
		}
		res.Placements[idx].Route = r
		return true
	}
	for _, idx := range order {
		if place(idx) {
			res.Placed++
		} else {
			res.Failed++
		}
	}

	for pass := 0; pass < cfg.ImprovePasses; pass++ {
		improvedThisPass := 0
		for idx := range res.Placements {
			p := &res.Placements[idx]
			if p.Route == nil {
				// Retry failures too: earlier re-routings may have freed room.
				if place(idx) {
					res.Placed++
					res.Failed--
					improvedThisPass++
				}
				continue
			}
			// Re-route with the demand's own channels free; the table keeps
			// the old pair unless the new one is strictly cheaper.
			var next *core.Result
			_, err := tab.Reroute(int64(idx), conns.Pair{}, func(c *conns.Conn[struct{}]) (conns.Pair, bool) {
				r, ok := eng.Route(cfg.Algorithm, net, c.Src, c.Dst)
				if !ok || r.Cost >= p.Route.Cost-1e-9 {
					return conns.Pair{}, false
				}
				next = r
				return r.Pair(), true
			})
			if err == nil {
				p.Route = next
				improvedThisPass++
			}
		}
		res.Improved += improvedThisPass
		if improvedThisPass == 0 {
			break
		}
	}

	for _, p := range res.Placements {
		if p.Route != nil {
			res.TotalCost += p.Route.Cost
		}
	}
	res.NetworkLoad = net.NetworkLoad()
	return res
}
