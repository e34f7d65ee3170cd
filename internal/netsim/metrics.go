package netsim

import "repro/internal/metrics"

// instruments is one simulator's single set of live signals. /metrics and
// the telemetry windows both read these, and an event writes each of them
// once. New builds them inside every Sim; the timers exist only while the
// sim is observed (Config.Window is set or a registry is set), so an
// unobserved run reads no clock. All times are wall-clock computation
// latency, not simulated time — the simulator's own clock lives in Metrics.
type instruments struct {
	established metrics.Counter
	blocked     metrics.Counter
	teardowns   metrics.Counter
	failures    metrics.Counter
	restored    metrics.Counter
	dropped     metrics.Counter
	reroutes    metrics.Counter // passive restorations and reconfiguration moves
	reconfigs   metrics.Counter

	routeTime   *metrics.Timer
	restoreTime *metrics.Timer

	// Live progress gauges: refreshed as the simulation runs so a /metrics
	// scrape mid-run shows where the run stands, not just end-of-run totals.
	networkLoad  metrics.Gauge
	liveConns    metrics.Gauge
	offered      metrics.Gauge
	blockingProb metrics.Gauge
}

// publish exposes the instruments on r under the netsim_* names, replacing
// any earlier sim's entries. A nil registry publishes nothing.
func (m *instruments) publish(r *metrics.Registry) {
	for _, p := range []struct {
		name, help string
		inst       any
	}{
		{"netsim_route_seconds", "per-request routing computation latency", m.routeTime},
		{"netsim_established_total", "connections established", &m.established},
		{"netsim_blocked_total", "requests blocked", &m.blocked},
		{"netsim_teardown_total", "connections torn down at departure", &m.teardowns},
		{"netsim_failures_total", "link failure events", &m.failures},
		{"netsim_restore_seconds", "per-connection restoration computation latency", m.restoreTime},
		{"netsim_restored_total", "connections recovered after a failure", &m.restored},
		{"netsim_dropped_total", "connections lost to an unrecovered failure", &m.dropped},
		{"netsim_reroutes_total", "connections moved by passive restoration or reconfiguration", &m.reroutes},
		{"netsim_reconfigs_total", "reconfiguration events triggered", &m.reconfigs},

		{"netsim_network_load", "current network load rho (max link utilization)", &m.networkLoad},
		{"netsim_live_connections", "connections currently established", &m.liveConns},
		{"netsim_offered", "measured requests offered so far", &m.offered},
		{"netsim_blocking_probability", "running blocked/offered ratio over measured requests", &m.blockingProb},
	} {
		r.Publish(p.name, p.help, p.inst)
	}
}

// published is the registry sims publish their instruments on (nil: not
// published). Set by EnableMetrics, read by New.
var published *metrics.Registry

// EnableMetrics makes every simulator built afterwards publish its
// instruments on r (a later sim replaces an earlier one's entries). A nil
// registry stops publishing.
func EnableMetrics(r *metrics.Registry) { published = r }
