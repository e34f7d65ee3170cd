package main

import (
	"fmt"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/wdm"
	"repro/internal/workload"
)

// The sim-mincost workload: the paper's §2 traffic model on NSFNET with
// W=8 at 30 Erlang, MinCost routing behind a 4-pair candidate tier, active
// restoration with link failures and reconfiguration accounting.
const (
	topoName      = "nsfnet"
	topoW         = 8
	simErlang     = 30.0
	simCandidates = 4
)

// simArrivals sizes one repetition of the sim: large enough that blocking
// and cost repeat across seeds, small enough that several fit in a window.
func simArrivals(seconds float64) int {
	return max(1000, min(50_000, int(seconds*20_000)))
}

// simConfig is the simulator configuration shared by the benchmark and its
// equivalence test.
func simConfig(opts *core.Options, seed int64) netsim.Config {
	return netsim.Config{
		Algorithm:         netsim.MinCost,
		Restoration:       netsim.Active,
		Opts:              opts,
		FailureRate:       0.05,
		RepairTime:        5,
		ReconfigThreshold: 0.6,
		ReconfigCooldown:  0.2,
		Seed:              seed,
	}
}

// tierAttrs are the shared, immutable attributes of core.route spans.
var tierAttrs = [...]map[string]string{
	core.TierExact:     {"tier": core.TierExact.String()},
	core.TierCandidate: {"tier": core.TierCandidate.String()},
	core.TierFallback:  {"tier": core.TierFallback.String()},
}

// wrappedRoute is the RouteFunc the benchmark hands the simulator: a
// benchmark-owned router with the simulator's options, timed per arrival.
// onRoute sees every routed arrival with its timing.
func wrappedRoute(opts *core.Options, onRoute func(net *wdm.Network, r *core.Router, t0, t1 time.Time)) func(*wdm.Network, int, int) (*core.Result, bool) {
	router := core.NewRouter(opts)
	return func(net *wdm.Network, s, t int) (*core.Result, bool) {
		t0 := time.Now()
		res, ok := router.ApproxMinCost(net, s, t)
		onRoute(net, router, t0, time.Now())
		return res, ok
	}
}

// simSetup is what the sim's set-up builds.
type simSetup struct {
	net *wdm.Network
	tab *core.CandidateTable
}

// runSim repeats the simulation of one seed's arrivals until the timed phase
// ends; every repetition must reproduce the first.
func runSim(c runConfig) (*outcome, error) {
	o := &outcome{workers: 1}
	st, err := timeSetup(o, func() (simSetup, error) {
		n, err := cli.BuildTopology(topoName, 0, topoW, 0)
		if err != nil {
			return simSetup{}, err
		}
		return simSetup{n, core.NewCandidateTable(n, simCandidates)}, nil
	}, func(simSetup) error { return nil })
	if err != nil {
		return nil, err
	}
	net := st.net

	n := simArrivals(c.seconds)
	reqs := workload.Poisson(workload.PoissonConfig{
		Nodes: net.Nodes(), ArrivalRate: simErlang, MeanHolding: 1, Count: n, Seed: c.seed,
	})
	opts := &core.Options{CandidateTable: st.tab, ReuseResult: true}
	cfg := simConfig(opts, c.seed)

	var (
		first    *netsim.Metrics
		captured *wdm.Network
		tiers    [len(tierAttrs)]int64 // routed arrivals per answering tier
		reps     int
	)
	o.run = readRunStats()
	o.rss.start()
	o.timeWindows(c.duration(), func(_ int, w *window, length time.Duration) {
		// Whole repetitions until the window's length is up; the last overruns it.
		for until := time.Now().Add(length); time.Now().Before(until); {
			rep := reps
			reps++
			runSpan := c.rec.begin("sim.run", 0)
			arrival := 0
			cfg.RouteFunc = wrappedRoute(opts, func(net *wdm.Network, r *core.Router, t0, t1 time.Time) {
				w.lat.add(t1.Sub(t0))
				o.busy += t1.Sub(t0)
				if c.rec != nil {
					tiers[r.LastTier()]++
					c.rec.record("core.route", runSpan.id, t0, t1, tierAttrs[r.LastTier()])
					if rep == 0 && arrival == n/2 {
						captured = net.Clone()
					}
				}
				arrival++
			})
			m := netsim.New(net, cfg).Run(reqs)
			c.rec.end(runSpan)

			if m.Offered != n || m.Accepted+m.Blocked != m.Offered {
				o.violate("sim rep %d: offered %d, accepted %d + blocked %d, want %d arrivals", rep, m.Offered, m.Accepted, m.Blocked, n)
			}
			if m.Recovered+m.RecoveryFailed != m.AffectedConns {
				o.violate("sim rep %d: recovered %d + lost %d != affected %d", rep, m.Recovered, m.RecoveryFailed, m.AffectedConns)
			}
			if first == nil {
				first = m
			} else if d := diffMetrics(first, m); d != "" {
				o.violate("sim rep %d differs from rep 0 on the same inputs: %s", rep, d)
			}
		}
	})
	o.rss.finish()
	after := readRunStats()

	o.timedOps = int64(n * reps)
	o.attempted = o.timedOps
	o.provisions, o.accepted, o.blocked = int64(first.Offered), int64(first.Accepted), int64(first.Blocked)
	o.costSum = first.Cost.Mean() * float64(first.Accepted)

	if c.rec != nil {
		route := c.rec.totalsOf("core.route")
		o.layers = timeKernels(captured, c.kernelBudget())
		o.layers["core.route_us"] = us(route.total) / float64(route.count)
		o.layers["pipeline.self_us"] = us(c.rec.totalsOf("sim.run").selfTime()) / float64(o.timedOps)
		o.addRunLayers(after)
		o.ledger = map[string]float64{
			"core.inrun_candidate_hit_ratio": float64(tiers[core.TierCandidate]) / float64(route.count),
			"netsim.self_us":                 o.layers["pipeline.self_us"],
		}
	}
	return o, nil
}

// diffMetrics reports the first field in which two runs of the same inputs
// disagree ("" when they agree bit for bit).
func diffMetrics(a, b *netsim.Metrics) string {
	type field struct {
		name string
		x, y float64
	}
	for _, f := range []field{
		{"offered", float64(a.Offered), float64(b.Offered)},
		{"accepted", float64(a.Accepted), float64(b.Accepted)},
		{"blocked", float64(a.Blocked), float64(b.Blocked)},
		{"cost", a.Cost.Mean(), b.Cost.Mean()},
		{"failures", float64(a.FailureEvents), float64(b.FailureEvents)},
		{"affected", float64(a.AffectedConns), float64(b.AffectedConns)},
		{"recovered", float64(a.Recovered), float64(b.Recovered)},
		{"lost", float64(a.RecoveryFailed), float64(b.RecoveryFailed)},
		{"reconfigs", float64(a.Reconfigs), float64(b.Reconfigs)},
		{"rerouted", float64(a.ReroutedConns), float64(b.ReroutedConns)},
	} {
		if f.x != f.y {
			return fmt.Sprintf("%s %v vs %v", f.name, f.x, f.y)
		}
	}
	return ""
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
