package serve

import "repro/internal/metrics"

// instruments is one engine's single set of signals. /status, /metrics and
// the telemetry windows all read these, and a request writes each of them
// once, lock-free. The engine builds them in New whether or not metrics are
// enabled; EnableMetrics only decides whether New also publishes them.
type instruments struct {
	provisions metrics.Counter
	accepted   metrics.Counter
	blocked    metrics.Counter
	teardowns  metrics.Counter
	reroutes   metrics.Counter
	conflicts  metrics.Counter // commit-time reservation conflicts (pre-retry)
	retries    metrics.Counter // re-route attempts after a conflict
	epochs     metrics.Counter

	requestTime *metrics.Timer

	// Stage-attribution timers: every microsecond of wdmd_request_seconds is
	// attributed to exactly one of queue/snapshot/route/commit/reroute, so
	// the five stage sums add up to the end-to-end sum (TestStageSumMatches
	// pins the identity within 5% on a soak). decode is HTTP-only overhead
	// measured before the request clock starts; the candidate/exact pair is
	// a sub-split of the route stage, not an additional stage.
	stageDecode    *metrics.Timer
	stageQueue     *metrics.Timer
	stageSnapshot  *metrics.Timer
	stageRoute     *metrics.Timer
	stageRouteCand *metrics.Timer
	stageRouteEx   *metrics.Timer
	stageCommit    *metrics.Timer
	stageReroute   *metrics.Timer

	// Live progress gauges: refreshed per request so a mid-soak /metrics
	// scrape shows where the daemon stands, not just end totals.
	epoch        metrics.Gauge
	routers      metrics.Gauge
	liveConns    metrics.Gauge
	blockingProb metrics.Gauge
}

// initTimers builds the timer histograms (counters and gauges are ready as
// zero values).
func (m *instruments) initTimers() {
	for _, t := range []**metrics.Timer{
		&m.requestTime,
		&m.stageDecode, &m.stageQueue, &m.stageSnapshot, &m.stageRoute,
		&m.stageRouteCand, &m.stageRouteEx, &m.stageCommit, &m.stageReroute,
	} {
		*t = metrics.NewTimer()
	}
}

// publish exposes the instruments on r under the wdmd_* names, replacing
// any earlier engine's entries. A nil registry publishes nothing.
func (m *instruments) publish(r *metrics.Registry) {
	for _, p := range []struct {
		name, help string
		inst       any
	}{
		{"wdmd_provision_total", "provision requests received", &m.provisions},
		{"wdmd_accepted_total", "provisions accepted", &m.accepted},
		{"wdmd_blocked_total", "provisions blocked (no route, conflict, duplicate)", &m.blocked},
		{"wdmd_teardown_total", "teardown requests received", &m.teardowns},
		{"wdmd_reroute_total", "reroute requests received", &m.reroutes},
		{"wdmd_conflicts_total", "commit-time optimistic reservation conflicts", &m.conflicts},
		{"wdmd_retries_total", "conflicted admissions re-routed on a fresh snapshot", &m.retries},
		{"wdmd_epochs_total", "snapshot epochs published", &m.epochs},
		{"wdmd_request_seconds", "end-to-end request latency (queue + route + commit)", m.requestTime},

		{"wdmd_stage_decode_seconds", "HTTP request-body decode latency (before the request clock starts)", m.stageDecode},
		{"wdmd_stage_queue_seconds", "dispatch + wait for a free router (request accepted to router taken; teardowns take none)", m.stageQueue},
		{"wdmd_stage_snapshot_seconds", "epoch-snapshot acquire (provision and reroute)", m.stageSnapshot},
		{"wdmd_stage_route_seconds", "route compute, first attempt", m.stageRoute},
		{"wdmd_stage_route_candidate_seconds", "route compute answered by the candidate fast tier", m.stageRouteCand},
		{"wdmd_stage_route_exact_seconds", "route compute answered by the exact pipeline (incl. candidate fallbacks)", m.stageRouteEx},
		{"wdmd_stage_commit_seconds", "commit-lock wait, apply and epoch publish, plus returning the router", m.stageCommit},
		{"wdmd_stage_reroute_seconds", "conflict re-route: whole retry attempts after a lost commit race", m.stageReroute},

		{"wdmd_epoch", "current snapshot epoch", &m.epoch},
		{"wdmd_routers", "warm routers in the pool (GOMAXPROCS)", &m.routers},
		{"wdmd_live_connections", "connections currently established", &m.liveConns},
		{"wdmd_blocking_probability", "running blocked/provisions ratio", &m.blockingProb},
	} {
		r.Publish(p.name, p.help, p.inst)
	}
}

// published is the registry engines publish their instruments on (nil: not
// published). Set by EnableMetrics, read by New.
var published *metrics.Registry

// EnableMetrics makes every engine built afterwards publish its instruments
// on r (a later engine replaces an earlier one's entries). A nil registry
// stops publishing; engines keep counting for /status and telemetry either
// way.
func EnableMetrics(r *metrics.Registry) { published = r }
