package bench

import (
	"math"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/parallel"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/workload"
)

// simPoint is the per-seed aggregation unit for the dynamic experiments.
type simPoint struct {
	blocking     float64
	reconfigs    float64
	meanLoad     float64
	maxLoad      float64
	cost         float64
	recovOK      float64
	recovWork    float64
	affected     float64
	availability float64
}

// runDynamic runs one simulator configuration across seeds in parallel and
// aggregates.
func runDynamic(o Options, mk func(seed int64) (*netsim.Sim, []workload.Request)) (bl, rc, ml, xl, cost, rok, rwork, avail stats.Stream) {
	seeds := o.seeds(10, 3)
	points := parallel.Map(seeds, 0, func(i int) simPoint {
		sim, reqs := mk(int64(i))
		m := sim.Run(reqs)
		p := simPoint{
			blocking:     m.BlockingProbability(),
			reconfigs:    float64(m.Reconfigs),
			meanLoad:     m.MeanLoad(),
			maxLoad:      m.MaxNetworkLoad,
			cost:         m.Cost.Mean(),
			recovWork:    m.RecoveryWork.Mean(),
			availability: m.Availability.Mean(),
		}
		if m.AffectedConns > 0 {
			p.recovOK = float64(m.Recovered) / float64(m.AffectedConns)
			p.affected = float64(m.AffectedConns)
		} else {
			p.recovOK = math.NaN()
		}
		return p
	})
	for _, p := range points {
		bl.Add(p.blocking)
		rc.Add(p.reconfigs)
		ml.Add(p.meanLoad)
		xl.Add(p.maxLoad)
		cost.Add(p.cost)
		if !math.IsNaN(p.recovOK) {
			rok.Add(p.recovOK)
			rwork.Add(p.recovWork)
		}
		avail.Add(p.availability)
	}
	return
}

// E4 is the headline §4 experiment: reconfiguration counts for cost-only
// routing versus the load-aware two-phase algorithm across offered loads.
func E4(o Options) *Table {
	t := &Table{
		ID:      "E4",
		Title:   "Reconfiguration count: cost-only vs load-aware (§4)",
		Columns: []string{"erlang", "algorithm", "reconfigs", "blocking", "mean ρ", "max ρ", "mean cost"},
		Notes:   "NSFNET, W=8, reconfig threshold ρ≥0.6; §4 predicts the load-aware router crosses the threshold less often below saturation; at saturation both pin ρ≈1",
	}
	erlangs := []float64{8, 12, 16}
	count := 600
	if o.Quick {
		erlangs = []float64{12}
		count = 200
	}
	for _, erl := range erlangs {
		for _, algo := range []core.Algorithm{core.MinCost, core.MinLoadCost} {
			algo := algo
			erl := erl
			bl, rc, ml, xl, cost, _, _, _ := runDynamic(o, func(seed int64) (*netsim.Sim, []workload.Request) {
				net := topo.NSFNET(topo.Config{W: 8})
				sim := netsim.New(net, netsim.Config{
					Algorithm: algo, Restoration: netsim.Active,
					ReconfigThreshold: 0.6, ReconfigCooldown: 0.2, Seed: seed,
				})
				reqs := workload.Poisson(workload.PoissonConfig{
					Nodes: 14, ArrivalRate: erl, MeanHolding: 1, Count: count, Seed: 1000 + seed,
				})
				return sim, reqs
			})
			t.AddRow(fmtF(erl), algo.String(), fmtF(rc.Mean()), fmtPct(bl.Mean()),
				fmtF(ml.Mean()), fmtF(xl.Mean()), fmtF(cost.Mean()))
		}
	}
	return t
}

// E5 compares the activate and passive restoration disciplines of §1 under
// link failures.
func E5(o Options) *Table {
	t := &Table{
		ID:      "E5",
		Title:   "Active vs passive restoration (§1)",
		Columns: []string{"erlang", "mode", "recovery rate", "recovery work", "availability", "blocking"},
		Notes:   "recovery work = links newly signalled per recovery (0 = instant switchover); §1 predicts active recovers more, faster",
	}
	erlangs := []float64{20, 40}
	count := 600
	if o.Quick {
		erlangs = []float64{30}
		count = 250
	}
	for _, erl := range erlangs {
		for _, mode := range []netsim.Restoration{netsim.Active, netsim.Passive} {
			mode := mode
			erl := erl
			bl, _, _, _, _, rok, rwork, avail := runDynamic(o, func(seed int64) (*netsim.Sim, []workload.Request) {
				net := topo.NSFNET(topo.Config{W: 8})
				sim := netsim.New(net, netsim.Config{
					Algorithm: netsim.MinCost, Restoration: mode,
					FailureRate: 0.8, RepairTime: 3, Seed: 500 + seed,
				})
				reqs := workload.Poisson(workload.PoissonConfig{
					Nodes: 14, ArrivalRate: erl, MeanHolding: 1, Count: count, Seed: 2000 + seed,
				})
				return sim, reqs
			})
			t.AddRow(fmtF(erl), mode.String(), fmtPct(rok.Mean()), fmtF(rwork.Mean()),
				fmtPct(avail.Mean()), fmtPct(bl.Mean()))
		}
	}
	return t
}

// E8 ablates the exponential congestion-weight base a of §4.1 (a → 1⁺
// approaches a linear weight).
func E8(o Options) *Table {
	t := &Table{
		ID:      "E8",
		Title:   "Exponential congestion-weight base ablation (§4.1)",
		Columns: []string{"base a", "blocking", "mean ρ", "max ρ", "mean cost"},
		Notes:   "MinLoad routing on NSFNET, W=8, erlang 30; a→1 degenerates toward hop-count routing",
	}
	bases := []float64{1.01, 2, math.E, 10, 100}
	count := 500
	if o.Quick {
		bases = []float64{1.01, 10}
		count = 200
	}
	for _, base := range bases {
		base := base
		bl, _, ml, xl, cost, _, _, _ := runDynamic(o, func(seed int64) (*netsim.Sim, []workload.Request) {
			net := topo.NSFNET(topo.Config{W: 8})
			sim := netsim.New(net, netsim.Config{
				Algorithm: netsim.MinLoad, Restoration: netsim.Active,
				Opts: &core.Options{Base: base}, Seed: seed,
			})
			reqs := workload.Poisson(workload.PoissonConfig{
				Nodes: 14, ArrivalRate: 30, MeanHolding: 1, Count: count, Seed: 3000 + seed,
			})
			return sim, reqs
		})
		t.AddRow(fmtF(base), fmtPct(bl.Mean()), fmtF(ml.Mean()), fmtF(xl.Mean()), fmtF(cost.Mean()))
	}
	return t
}

// E10 sweeps offered load and reports blocking probability for all three
// routers on NSFNET and ARPA2.
func E10(o Options) *Table {
	t := &Table{
		ID:      "E10",
		Title:   "Blocking probability vs offered load",
		Columns: []string{"topology", "erlang", "min-cost", "min-load", "min-load-cost", "two-step"},
		Notes:   "W=8, active restoration (primary+backup per request)",
	}
	erlangs := []float64{10, 20, 30, 40, 60}
	count := 500
	topos := []string{"nsfnet", "arpa2"}
	if o.Quick {
		erlangs = []float64{20, 40}
		count = 150
		topos = topos[:1]
	}
	for _, tp := range topos {
		for _, erl := range erlangs {
			row := []string{tp, fmtF(erl)}
			for _, algo := range []core.Algorithm{
				core.MinCost, core.MinLoad, core.MinLoadCost, core.TwoStep,
			} {
				algo := algo
				erl := erl
				tp := tp
				bl, _, _, _, _, _, _, _ := runDynamic(o, func(seed int64) (*netsim.Sim, []workload.Request) {
					var net = topo.NSFNET(topo.Config{W: 8})
					nodes := 14
					if tp == "arpa2" {
						net = topo.ARPA2(topo.Config{W: 8})
						nodes = 20
					}
					sim := netsim.New(net, netsim.Config{
						Algorithm: algo, Restoration: netsim.Active, Seed: seed,
					})
					reqs := workload.Poisson(workload.PoissonConfig{
						Nodes: nodes, ArrivalRate: erl, MeanHolding: 1, Count: count, Seed: 4000 + seed,
					})
					return sim, reqs
				})
				row = append(row, fmtPct(bl.Mean()))
			}
			t.AddRow(row...)
		}
	}
	return t
}
