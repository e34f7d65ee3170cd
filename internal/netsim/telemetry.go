package netsim

import "repro/internal/timeseries"

// Telemetry series names, as they appear in /debug/timeseries and in the
// JSONL/CSV export. The seal-time network gauges (timeseries.SeriesActiveConns,
// SeriesLinkLoadMean, SeriesLinkLoadMax, SeriesFragMean) come from the
// shared timeseries probe.
const (
	// SeriesRouteLatency is the per-request wall-clock routing latency
	// histogram (seconds; p50/p95/p99 per window).
	SeriesRouteLatency = "route_latency_seconds"
	// SeriesBlocking is the per-window blocking probability: blocked
	// requests over offered requests, 0 on an empty window.
	SeriesBlocking = "blocking"
	// SeriesAccepted counts connections established per window.
	SeriesAccepted = "accepted"
	// SeriesReroutes counts connection reroutes per window (reconfiguration
	// moves and passive restorations).
	SeriesReroutes = "reroutes"
	// SeriesReconfigs counts reconfiguration events per window — the
	// paper's §4 disruption metric as a curve instead of a total.
	SeriesReconfigs = "reconfigs"
)

// buildTelemetry builds the sim's collector over windows of window
// sim-seconds: it windows the sim's instruments (route latency, outcome
// and reroute counters) and samples the network and live-connection count
// at each seal. window <= 0 leaves telemetry off (nil collector and probe).
func (s *Sim) buildTelemetry(window float64) {
	if window <= 0 {
		return
	}
	col := timeseries.New(window)
	m := &s.instr
	col.Histogram(SeriesRouteLatency, m.routeTime.Hist())
	col.Ratio(SeriesBlocking, &m.blocked, &m.established)
	col.Rate(SeriesAccepted, &m.established)
	col.Rate(SeriesReroutes, &m.reroutes)
	col.Rate(SeriesReconfigs, &m.reconfigs)
	s.net = col.SampleNetwork(func(at float64) *timeseries.NetState {
		return timeseries.ProbeNetwork(s.tab.Network(), at, s.tab.Len())
	})
	s.col = col
}

// Collector exposes the sim's telemetry collector for export sinks, SLO
// watchdogs and /debug/timeseries (nil when Config.Window is 0).
func (s *Sim) Collector() *timeseries.Collector { return s.col }

// NetState returns the per-link utilization snapshot sampled at the last
// window seal, or nil before the first seal or with telemetry off. Safe
// from any goroutine.
func (s *Sim) NetState() *timeseries.NetState { return s.net.Latest() }
