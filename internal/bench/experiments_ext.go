package bench

import (
	"fmt"
	"math/rand"

	"repro/internal/conns"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/parallel"
	"repro/internal/provision"
	"repro/internal/reconfig"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/wdm"
	"repro/internal/workload"
)

// E11 compares the two §1 protection disciplines: edge-disjoint pairs
// (single link failures) versus internally node-disjoint pairs (node and
// link failures) — feasibility and cost premium.
func E11(o Options) *Table {
	t := &Table{
		ID:      "E11",
		Title:   "Edge-disjoint vs node-disjoint protection (§1)",
		Columns: []string{"topology", "requests", "edge ok", "node ok", "mean cost premium (node/edge)"},
		Notes:   "node-disjoint pairs survive single node failures but need more capacity; premium over pairs where both exist",
	}
	seeds := o.seeds(200, 20)
	cases := []struct {
		name string
		make func(i int) (*wdm.Network, int, int)
	}{
		{"nsfnet", func(i int) (*wdm.Network, int, int) {
			rng := rand.New(rand.NewSource(int64(i)))
			s := rng.Intn(14)
			d := rng.Intn(13)
			if d >= s {
				d++
			}
			return topo.NSFNET(topo.Config{W: 4}), s, d
		}},
		{"waxman-16", func(i int) (*wdm.Network, int, int) {
			return topo.Waxman(16, 0.35, 0.35, int64(i), topo.Config{W: 4}), 0, 15
		}},
		{"ring-8", func(i int) (*wdm.Network, int, int) {
			rng := rand.New(rand.NewSource(int64(i)))
			s := rng.Intn(8)
			d := rng.Intn(7)
			if d >= s {
				d++
			}
			return topo.Ring(8, topo.Config{W: 4}), s, d
		}},
		{"bowtie-5", func(i int) (*wdm.Network, int, int) {
			// Articulation node 2: edge-disjoint pairs exist, node-disjoint
			// pairs cannot.
			net := wdm.NewNetwork(5, 4)
			net.AddUniformLink(0, 1, 1)
			net.AddUniformLink(1, 2, 1)
			net.AddUniformLink(0, 2, 1)
			net.AddUniformLink(2, 3, 1)
			net.AddUniformLink(3, 4, 1)
			net.AddUniformLink(2, 4, 1)
			return net, 0, 4
		}},
	}
	for _, c := range cases {
		type sample struct {
			okE, okN bool
			premium  float64
		}
		samples := parallel.MapWithState(seeds, 0,
			func() *core.Router { return core.NewRouter(nil) },
			func(router *core.Router, i int) sample {
				net, s, d := c.make(i)
				re, okE := router.ApproxMinCost(net, s, d)
				rn, okN := router.ApproxMinCostNodeDisjoint(net, s, d)
				out := sample{okE: okE, okN: okN}
				if okE && okN {
					out.premium = rn.Cost / re.Cost
				}
				return out
			})
		okE, okN := 0, 0
		var prem stats.Stream
		for _, s := range samples {
			if s.okE {
				okE++
			}
			if s.okN {
				okN++
			}
			if s.okE && s.okN {
				prem.Add(s.premium)
			}
		}
		t.AddRow(c.name, fmt.Sprint(seeds),
			fmtPct(float64(okE)/float64(seeds)), fmtPct(float64(okN)/float64(seeds)),
			fmtF(prem.Mean()))
	}
	return t
}

// E12 evaluates the static-provisioning extension: demand ordering and
// local-improvement ablation on batch workloads.
func E12(o Options) *Table {
	t := &Table{
		ID:      "E12",
		Title:   "Static provisioning: ordering and improvement ablation",
		Columns: []string{"order", "improve", "placed", "total cost", "final ρ", "improved"},
		Notes:   "NSFNET, W=4, 30 random demands per seed, MinCost router; offline counterpart of the dynamic problem",
	}
	seeds := o.seeds(20, 4)
	demandCount := 30
	if o.Quick {
		demandCount = 15
	}
	type cfgDef struct {
		name    string
		order   provision.Order
		improve int
	}
	cfgs := []cfgDef{
		{"in-order", provision.InOrder, 0},
		{"longest-first", provision.LongestFirst, 0},
		{"shortest-first", provision.ShortestFirst, 0},
		{"in-order", provision.InOrder, 3},
		{"longest-first", provision.LongestFirst, 3},
	}
	for _, c := range cfgs {
		c := c
		type sample struct {
			placed, improved int
			cost, load       float64
		}
		samples := parallel.Map(seeds, 0, func(i int) sample {
			rng := rand.New(rand.NewSource(int64(61000 + i)))
			var ds []provision.Demand
			for k := 0; k < demandCount; k++ {
				s := rng.Intn(14)
				d := rng.Intn(13)
				if d >= s {
					d++
				}
				ds = append(ds, provision.Demand{ID: k, Src: s, Dst: d})
			}
			res := provision.Provision(topo.NSFNET(topo.Config{W: 4}), ds, provision.Config{
				Algorithm: core.MinCost, Order: c.order, ImprovePasses: c.improve,
			})
			return sample{placed: res.Placed, improved: res.Improved, cost: res.TotalCost, load: res.NetworkLoad}
		})
		var placed, cost, load, improved stats.Stream
		for _, s := range samples {
			placed.Add(float64(s.placed))
			cost.Add(s.cost)
			load.Add(s.load)
			improved.Add(float64(s.improved))
		}
		t.AddRow(c.name, fmt.Sprint(c.improve), fmtF(placed.Mean()),
			fmtF(cost.Mean()), fmtF(load.Mean()), fmtF(improved.Mean()))
	}
	return t
}

// E13 measures the wavelength-conversion gain: blocking under dynamic
// traffic with full conversion (the §3.3 assumption), limited-range
// conversion, and no conversion at all (the wavelength-continuity regime of
// Lemma 1). The routers degrade gracefully: with restricted converters the
// Lemma 2 refinement may find no consistent assignment, and the request
// blocks.
func E13(o Options) *Table {
	t := &Table{
		ID:      "E13",
		Title:   "Wavelength-conversion gain (Lemma 1 regime vs §3.3 regime)",
		Columns: []string{"converter", "W", "blocking", "mean cost", "mean ρ"},
		Notes:   "NSFNET, erlang 25, min-cost robust routing; conversion relaxes the continuity constraint and lowers blocking",
	}
	type convDef struct {
		name string
		mk   func(w int) wdm.Converter
	}
	convs := []convDef{
		{"none", func(w int) wdm.Converter { return wdm.NoConverter{} }},
		{"range-1", func(w int) wdm.Converter { return wdm.NewRangeConverter(1, 0.5) }},
		{"full", func(w int) wdm.Converter { return wdm.NewFullConverter(w, 0.5) }},
	}
	ws := []int{4, 8}
	count := 500
	if o.Quick {
		ws = []int{4}
		count = 150
	}
	for _, w := range ws {
		for _, cv := range convs {
			cv := cv
			w := w
			bl, _, ml, _, cost, _, _, _ := runDynamic(o, func(seed int64) (*netsim.Sim, []workload.Request) {
				net := topo.NSFNET(topo.Config{W: w})
				net.SetAllConverters(cv.mk(w))
				sim := netsim.New(net, netsim.Config{
					Algorithm: netsim.MinCost, Restoration: netsim.Active, Seed: seed,
				})
				reqs := workload.Poisson(workload.PoissonConfig{
					Nodes: 14, ArrivalRate: 25, MeanHolding: 1, Count: count, Seed: 5000 + seed,
				})
				return sim, reqs
			})
			t.AddRow(cv.name, fmt.Sprint(w), fmtPct(bl.Mean()), fmtF(cost.Mean()), fmtF(ml.Mean()))
		}
	}
	return t
}

// E14 compares adaptive robust routing (recompute on the live residual
// network, the paper's approach) against fixed-alternate robust routing
// (precomputed route-pair table, the cheap-lookup baseline of the era): the
// adaptive advantage the §1 discussion of dynamic algorithms implies.
func E14(o Options) *Table {
	t := &Table{
		ID:      "E14",
		Title:   "Adaptive vs fixed-alternate robust routing",
		Columns: []string{"erlang", "discipline", "blocking", "mean cost"},
		Notes:   "NSFNET, W=8; fixed-alternate precomputes k edge-disjoint pair alternates per node pair on the idle network",
	}
	erlangs := []float64{20, 35}
	count := 500
	if o.Quick {
		erlangs = []float64{30}
		count = 150
	}
	type disc struct {
		name string
		mk   func(net *wdm.Network) func(*wdm.Network, int, int) (*core.Result, bool)
	}
	discs := []disc{
		{"adaptive (§3.3)", nil},
		{"fixed-alt k=1", func(net *wdm.Network) func(*wdm.Network, int, int) (*core.Result, bool) {
			tbl := BuildAlternateTable(net, 1)
			return tbl.Route
		}},
		{"fixed-alt k=3", func(net *wdm.Network) func(*wdm.Network, int, int) (*core.Result, bool) {
			tbl := BuildAlternateTable(net, 3)
			return tbl.Route
		}},
	}
	for _, erl := range erlangs {
		for _, d := range discs {
			d := d
			erl := erl
			bl, _, _, _, cost, _, _, _ := runDynamic(o, func(seed int64) (*netsim.Sim, []workload.Request) {
				net := topo.NSFNET(topo.Config{W: 8})
				cfg := netsim.Config{Algorithm: netsim.MinCost, Restoration: netsim.Active, Seed: seed}
				if d.mk != nil {
					cfg.RouteFunc = d.mk(net)
				}
				sim := netsim.New(net, cfg)
				reqs := workload.Poisson(workload.PoissonConfig{
					Nodes: 14, ArrivalRate: erl, MeanHolding: 1, Count: count, Seed: 6000 + seed,
				})
				return sim, reqs
			})
			t.AddRow(fmtF(erl), d.name, fmtPct(bl.Mean()), fmtF(cost.Mean()))
		}
	}
	return t
}

// E18 checks that the §4 conclusions are not artifacts of the uniform
// Poisson/exponential workload: blocking and load are re-measured under a
// gravity-model matrix (large-city pairs dominate) and heavy-tailed
// (Pareto) holding times.
func E18(o Options) *Table {
	t := &Table{
		ID:      "E18",
		Title:   "Traffic-model sensitivity: uniform vs gravity vs heavy-tailed",
		Columns: []string{"workload", "algorithm", "blocking", "mean ρ", "max ρ"},
		Notes:   "NSFNET, W=8, erlang 25; gravity populations follow a 3:1 big/small city split",
	}
	count := 500
	if o.Quick {
		count = 150
	}
	pops := make([]float64, 14)
	for i := range pops {
		pops[i] = 1
		if i%3 == 0 {
			pops[i] = 3
		}
	}
	gravity := workload.NewGravityMatrix(pops)
	uniform := workload.NewUniformMatrix(14)
	type wl struct {
		name string
		mk   func(seed int64) []workload.Request
	}
	wls := []wl{
		{"uniform/exp", func(seed int64) []workload.Request {
			return workload.MatrixPoisson(workload.MatrixConfig{
				Matrix: uniform, ArrivalRate: 25, MeanHolding: 1, Count: count, Seed: 7000 + seed,
			})
		}},
		{"gravity/exp", func(seed int64) []workload.Request {
			return workload.MatrixPoisson(workload.MatrixConfig{
				Matrix: gravity, ArrivalRate: 25, MeanHolding: 1, Count: count, Seed: 7000 + seed,
			})
		}},
		{"gravity/pareto", func(seed int64) []workload.Request {
			return workload.MatrixPoisson(workload.MatrixConfig{
				Matrix: gravity, ArrivalRate: 25, MeanHolding: 1, Count: count, Seed: 7000 + seed,
				Holding: workload.HoldingPareto,
			})
		}},
	}
	if o.Quick {
		wls = wls[:2]
	}
	for _, w := range wls {
		for _, algo := range []core.Algorithm{core.MinCost, core.MinLoadCost} {
			w := w
			algo := algo
			bl, _, ml, xl, _, _, _, _ := runDynamic(o, func(seed int64) (*netsim.Sim, []workload.Request) {
				sim := netsim.New(topo.NSFNET(topo.Config{W: 8}), netsim.Config{
					Algorithm: algo, Restoration: netsim.Active, Seed: seed,
					WarmupRequests: count / 10,
				})
				return sim, w.mk(seed)
			})
			t.AddRow(w.name, algo.String(), fmtPct(bl.Mean()), fmtF(ml.Mean()), fmtF(xl.Mean()))
		}
	}
	return t
}

// E19 closes the §4 loop: after loading the network with each router, run
// the full reconfiguration optimizer (the frozen-network operation the
// paper wants to avoid) and measure how much work it finds to do —
// load-aware routing should leave less residual imbalance.
func E19(o Options) *Table {
	t := &Table{
		ID:      "E19",
		Title:   "Reconfiguration gain after cost-only vs load-aware loading",
		Columns: []string{"router", "ρ before", "ρ after reconfig", "gain", "connections moved"},
		Notes:   "NSFNET, W=8, 18 connections; optimizer = iterated MinLoad re-routing of max-load connections",
	}
	seeds := o.seeds(15, 4)
	demands := 18
	if o.Quick {
		demands = 10
	}
	for _, algo := range []struct {
		name  string
		route func(*core.Router, *wdm.Network, int, int) (*core.Result, bool)
	}{
		{"min-cost", (*core.Router).ApproxMinCost},
		{"min-load-cost", (*core.Router).MinLoadCost},
	} {
		algo := algo
		samples := parallel.Map(seeds, 0, func(i int) *reconfig.Result {
			rng := rand.New(rand.NewSource(int64(97000 + i)))
			tab := conns.New[struct{}](topo.NSFNET(topo.Config{W: 8}))
			router := core.NewRouter(nil)
			for k := 0; k < demands; k++ {
				s := rng.Intn(14)
				d := rng.Intn(13)
				if d >= s {
					d++
				}
				if r, ok := algo.route(router, tab.Network(), s, d); ok {
					// A pair the table refuses blocks the demand, changing
					// nothing, so the error needs no handling.
					_, _ = tab.Admit(int64(k), s, d, r.Pair())
				}
			}
			return reconfig.Optimize(tab)
		})
		var before, after, gain, moves stats.Stream
		for _, s := range samples {
			before.Add(s.LoadBefore)
			after.Add(s.LoadAfter)
			if s.LoadBefore > 0 {
				gain.Add((s.LoadBefore - s.LoadAfter) / s.LoadBefore)
			}
			moves.Add(float64(s.Moves))
		}
		t.AddRow(algo.name, fmtF(before.Mean()), fmtF(after.Mean()),
			fmtPct(gain.Mean()), fmtF(moves.Mean()))
	}
	return t
}
