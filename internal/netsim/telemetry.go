package netsim

import (
	"sync/atomic"

	"repro/internal/timeseries"
)

// Telemetry series names, as they appear in /debug/timeseries and in the
// JSONL/CSV export.
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
	// SeriesActiveConns gauges the live connection count, sampled at each
	// window seal.
	SeriesActiveConns = "active_conns"
	// SeriesLinkLoadMean and SeriesLinkLoadMax gauge per-link ρ(e)
	// aggregates, sampled at each window seal; the max is the network load
	// ρ of Eq. 2.
	SeriesLinkLoadMean = "link_load_mean"
	SeriesLinkLoadMax  = "link_load_max"
	// SeriesFragMean gauges mean first-fit wavelength fragmentation.
	SeriesFragMean = "frag_mean"
)

// Telemetry is the simulator's windowed time-series bundle: a collector on
// a sim-time clock windowing the bound sim's instruments (route latency,
// outcome and reroute counters), plus a per-window network-state probe whose
// latest snapshot backs /debug/net. The bundle owns only the gauges its
// probe sets at each seal. A nil *Telemetry is permanently off: every
// method is a no-op. One Telemetry serves one Sim.
type Telemetry struct {
	clock *timeseries.SimClock
	col   *timeseries.Collector

	active   *timeseries.Gauge
	loadMean *timeseries.Gauge
	loadMax  *timeseries.Gauge
	fragMean *timeseries.Gauge

	netState atomic.Pointer[timeseries.NetState]
	bound    atomic.Bool
}

// NewTelemetry returns a telemetry bundle cutting windows of window
// sim-seconds, retaining the last retention sealed windows in memory
// (timeseries.DefaultRetention if 0). Attach it via Config.Telemetry.
func NewTelemetry(window float64, retention int) *Telemetry {
	clock := timeseries.NewSimClock()
	col := timeseries.New(timeseries.Config{Window: window, Retention: retention, Clock: clock})
	return &Telemetry{
		clock:    clock,
		col:      col,
		active:   col.Gauge(SeriesActiveConns),
		loadMean: col.Gauge(SeriesLinkLoadMean),
		loadMax:  col.Gauge(SeriesLinkLoadMax),
		fragMean: col.Gauge(SeriesFragMean),
	}
}

// Collector exposes the underlying collector (nil for nil telemetry) for
// export sinks and the /debug/timeseries endpoint.
func (t *Telemetry) Collector() *timeseries.Collector {
	if t == nil {
		return nil
	}
	return t.col
}

// NetState returns the latest per-link utilization snapshot (sampled at the
// last window seal), or nil before the first seal. Safe from any goroutine.
func (t *Telemetry) NetState() *timeseries.NetState {
	if t == nil {
		return nil
	}
	return t.netState.Load()
}

// bind hooks the telemetry to one simulator: the collector windows that
// sim's instruments, and the window-seal probe samples its network and
// live-connection count. A second bind panics — two sims writing one
// collector would interleave their curves.
func (t *Telemetry) bind(s *Sim) {
	if t == nil {
		return
	}
	if !t.bound.CompareAndSwap(false, true) {
		panic("netsim: Telemetry already bound to a simulator")
	}
	m := &s.instr
	t.col.Histogram(SeriesRouteLatency, m.routeTime.Hist())
	t.col.Ratio(SeriesBlocking, &m.blocked, &m.established)
	t.col.Rate(SeriesAccepted, &m.established)
	t.col.Rate(SeriesReroutes, &m.reroutes)
	t.col.Rate(SeriesReconfigs, &m.reconfigs)
	t.col.OnSeal(func(at float64) {
		ns := timeseries.ProbeNetwork(s.tab.Network(), at, s.tab.Len())
		t.loadMean.Set(ns.MeanLoad)
		t.loadMax.Set(ns.MaxLoad)
		t.fragMean.Set(ns.MeanFrag)
		t.active.Set(float64(ns.ActiveConns))
		t.netState.Store(ns)
	})
}

// advance pushes the sim clock to t and seals any completed windows.
func (t *Telemetry) advance(at float64) {
	if t == nil {
		return
	}
	t.clock.Advance(at)
	t.col.Advance(at)
}

// finish seals the final (partial) window at end of run.
//
//wdm:coldpath runs once at the end of a simulation
func (t *Telemetry) finish() {
	if t == nil {
		return
	}
	t.col.Seal()
}
