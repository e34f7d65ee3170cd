package bench

import (
	"testing"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/topo"
	"repro/internal/workload"
)

// BenchmarkSimNSFNETDynamic is the headline dynamic-simulation benchmark in
// its production configuration: candidate fast tier on, with one table
// shared by every iteration (it is state-independent, so each pair's entry
// is generated once, in the first iteration that routes the pair).
func BenchmarkSimNSFNETDynamic(b *testing.B) {
	reqs := workload.Poisson(workload.PoissonConfig{
		Nodes: 14, ArrivalRate: 10, MeanHolding: 2, Count: 200, Seed: 7,
	})
	net := topo.NSFNET(topo.Config{W: 8})
	tab := core.NewCandidateTable(net, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim := netsim.New(net, netsim.Config{
			Algorithm: netsim.MinCost,
			Opts:      &core.Options{CandidateTable: tab},
		})
		sim.Run(reqs)
	}
}

// BenchmarkSimNSFNETDynamicExact is the same run with the candidate tier off
// — every arrival goes through the full §3.3 pipeline. The gap between the
// two arms is what the fast tier buys.
func BenchmarkSimNSFNETDynamicExact(b *testing.B) {
	reqs := workload.Poisson(workload.PoissonConfig{
		Nodes: 14, ArrivalRate: 10, MeanHolding: 2, Count: 200, Seed: 7,
	})
	net := topo.NSFNET(topo.Config{W: 8})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim := netsim.New(net, netsim.Config{Algorithm: netsim.MinCost})
		sim.Run(reqs)
	}
}
