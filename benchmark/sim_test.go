package main

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/wdm"
	"repro/internal/workload"
)

// TestWrappedRouteMatchesDefault: routing the sim's arrivals through the
// benchmark's timed RouteFunc must not change what the simulator computes,
// so sim-mincost measures the simulator users run.
func TestWrappedRouteMatchesDefault(t *testing.T) {
	net, err := cli.BuildTopology(topoName, 0, topoW, 0)
	if err != nil {
		t.Fatal(err)
	}
	opts := &core.Options{CandidateTable: core.NewCandidateTable(net, simCandidates), ReuseResult: true}
	reqs := workload.Poisson(workload.PoissonConfig{Nodes: net.Nodes(), ArrivalRate: simErlang, MeanHolding: 1, Count: 5000, Seed: 3})

	def := netsim.New(net, simConfig(opts, 3)).Run(reqs)
	cfg := simConfig(opts, 3)
	routed := 0
	cfg.RouteFunc = wrappedRoute(opts, func(*wdm.Network, *core.Router, time.Time, time.Time) { routed++ })
	wrapped := netsim.New(net, cfg).Run(reqs)

	if routed != len(reqs) {
		t.Fatalf("wrapper routed %d arrivals, want %d", routed, len(reqs))
	}
	if def.FailureEvents == 0 || def.Reconfigs == 0 || def.Blocked == 0 {
		t.Fatalf("run too tame to compare: %d failures, %d reconfigurations, %d blocked", def.FailureEvents, def.Reconfigs, def.Blocked)
	}
	if !reflect.DeepEqual(*def, *wrapped) {
		t.Fatalf("wrapped run differs from the default path:\ndefault %+v\nwrapped %+v", *def, *wrapped)
	}
}
