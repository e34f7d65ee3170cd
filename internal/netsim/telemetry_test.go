package netsim

import (
	"testing"

	"repro/internal/metrics"
	"repro/internal/timeseries"
)

// withRegistry publishes the sims built during the test on a fresh registry.
func withRegistry(t *testing.T) *metrics.Registry {
	reg := metrics.NewRegistry()
	EnableMetrics(reg)
	t.Cleanup(func() { EnableMetrics(nil) })
	return reg
}

func TestSimTelemetryCurve(t *testing.T) {
	reg := withRegistry(t)
	sim := New(nsf(4), Config{Algorithm: MinCost, Restoration: Active, Window: 5})
	reqs := poisson(14, 800, 25, 11)
	m := sim.Run(reqs)

	col := sim.Collector()
	if len(col.Snapshots(0)) == 0 {
		t.Fatal("no telemetry windows sealed")
	}
	snaps := col.Snapshots(0)

	// Every arrival contributes one latency sample and one blocking
	// observation, warmup included; the final Seal flushes the partial
	// last window, so the totals must match exactly.
	var latCount, blkNum, blkDen, accepted int64
	for _, s := range snaps {
		hv, ok := s.Hist(SeriesRouteLatency)
		if !ok {
			t.Fatal("route latency series missing")
		}
		latCount += hv.Count
		if hv.Count > 0 && (hv.P50 <= 0 || hv.P99 > hv.Max) {
			t.Fatalf("window %d latency quantiles inconsistent: %+v", s.Window, hv)
		}
		bv, _ := s.RatioOf(SeriesBlocking)
		blkNum += bv.Num
		blkDen += bv.Den
		av, _ := s.RateOf(SeriesAccepted)
		accepted += av.Count
	}
	if latCount != int64(len(reqs)) {
		t.Fatalf("latency samples %d != arrivals %d", latCount, len(reqs))
	}
	if blkDen != int64(len(reqs)) || blkNum != int64(m.Blocked) {
		t.Fatalf("blocking %d/%d, want %d/%d", blkNum, blkDen, m.Blocked, len(reqs))
	}
	if accepted != int64(m.Accepted) {
		t.Fatalf("accepted rate total %d != metrics %d", accepted, m.Accepted)
	}
	// One accumulator per signal: the windows and /metrics read the same
	// instruments, so their totals agree exactly.
	if got := int64(*instrument(t, reg, "netsim_established_total").Value); got != accepted {
		t.Fatalf("netsim_established_total %d != windowed accepted %d", got, accepted)
	}
	if got := *instrument(t, reg, "netsim_route_seconds").Count; got != latCount {
		t.Fatalf("netsim_route_seconds count %d != windowed latency samples %d", got, latCount)
	}

	// The window-seal probe sampled the network: the gauges carry values and
	// the latest NetState snapshot is published for /debug/net.
	ns := sim.NetState()
	if ns == nil {
		t.Fatal("no NetState published")
	}
	if ns.Nodes != 14 || len(ns.Links) == 0 {
		t.Fatalf("NetState = %+v", ns)
	}
	sawLoad := false
	for _, s := range snaps {
		if gv, ok := s.GaugeOf(timeseries.SeriesLinkLoadMax); ok && gv.Samples > 0 && gv.Last > 0 {
			sawLoad = true
		}
		if gv, ok := s.GaugeOf(timeseries.SeriesLinkLoadMean); ok && gv.Last < 0 || !ok {
			t.Fatal("load mean gauge missing")
		}
	}
	if !sawLoad {
		t.Fatal("no window saw a loaded network")
	}

	// Sim-time windows: the curve must span the run horizon.
	if last := snaps[len(snaps)-1]; last.Start > m.Horizon {
		t.Fatalf("last window starts at %g, beyond horizon %g", last.Start, m.Horizon)
	}
}

func TestSimTelemetryReconfigSeries(t *testing.T) {
	reg := withRegistry(t)
	sim := New(nsf(4), Config{
		Algorithm: MinLoadCost, Restoration: Active, Window: 5,
		ReconfigThreshold: 0.3, ReconfigCooldown: 0.1,
	})
	m := sim.Run(poisson(14, 600, 30, 5))
	var reconfigs, reroutes int64
	for _, s := range sim.Collector().Snapshots(0) {
		rv, _ := s.RateOf(SeriesReconfigs)
		reconfigs += rv.Count
		rr, _ := s.RateOf(SeriesReroutes)
		reroutes += rr.Count
	}
	if reconfigs != int64(m.Reconfigs) {
		t.Fatalf("windowed reconfigs %d != metrics %d", reconfigs, m.Reconfigs)
	}
	if reroutes != int64(m.ReroutedConns) {
		t.Fatalf("windowed reroutes %d != rerouted conns %d", reroutes, m.ReroutedConns)
	}
	if got := int64(*instrument(t, reg, "netsim_reconfigs_total").Value); got != reconfigs {
		t.Fatalf("netsim_reconfigs_total %d != windowed reconfigs %d", got, reconfigs)
	}
	if got := int64(*instrument(t, reg, "netsim_reroutes_total").Value); got != reroutes {
		t.Fatalf("netsim_reroutes_total %d != windowed reroutes %d", got, reroutes)
	}
	if m.Reconfigs == 0 {
		t.Skip("run triggered no reconfigurations; series equality still held")
	}
}

// TestNilTelemetryIsNoOp pins the unobserved path: a sim with Window 0
// hands out no telemetry state, and with no registry either it builds no
// timers — so its arrivals read no clock — while its run stays valid.
func TestNilTelemetryIsNoOp(t *testing.T) {
	sim := New(nsf(4), Config{Algorithm: MinCost})
	if sim.instr.routeTime != nil || sim.instr.restoreTime != nil {
		t.Fatal("unobserved sim built timers")
	}
	if m := sim.Run(poisson(14, 100, 10, 3)); m.Offered != 100 || m.Accepted == 0 {
		t.Fatalf("run without telemetry broke: %+v", m)
	}
	if sim.Collector() != nil || sim.NetState() != nil {
		t.Fatal("sim without telemetry returned state")
	}
}

// TestLiveGaugesUpdateMidRun snapshots the /metrics progress gauges after
// every event — a mid-run observer, like a Prometheus scrape hitting -serve.
func TestLiveGaugesUpdateMidRun(t *testing.T) {
	reg := withRegistry(t)
	sim := New(nsf(4), Config{Algorithm: MinCost, Restoration: Active})
	scrape := func(name string) float64 { return *instrument(t, reg, name).Value }
	var seen []float64
	sim.afterEvent = func() {
		seen = append(seen, scrape("netsim_offered"))
		if v := scrape("netsim_blocking_probability"); v < 0 || v > 1 {
			t.Fatalf("blocking gauge %g outside [0,1]", v)
		}
	}
	m := sim.Run(poisson(14, 400, 20, 9))

	if len(seen) == 0 {
		t.Fatal("observer saw no events")
	}
	// The offered gauge must rise during the run — mid-run scrapes see
	// progress, not a constant end-of-run value.
	mid := seen[len(seen)/2]
	if mid <= 0 || mid >= float64(m.Offered) {
		t.Fatalf("mid-run offered gauge = %g, want strictly between 0 and %d", mid, m.Offered)
	}
	for i := 1; i < len(seen); i++ {
		if seen[i] < seen[i-1] {
			t.Fatal("offered gauge went backwards")
		}
	}
	if got := scrape("netsim_offered"); got != float64(m.Offered) {
		t.Fatalf("final offered gauge %g != %d", got, m.Offered)
	}
	if got := scrape("netsim_blocking_probability"); got != m.BlockingProbability() {
		t.Fatalf("final blocking gauge %g != %g", got, m.BlockingProbability())
	}
}
