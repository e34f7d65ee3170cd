package main

import "slices"

// Workload is one set of inputs the benchmark runs.
type Workload struct {
	Name string
	Why  string
}

// workloads is the benchmark's gated ladder above the kernels: L2 is
// sim-mincost, L3 engine-closed, L4 http-closed. BENCHMARK.json declares the
// same list (TestDeclarationsMatchBenchmarkJSON).
var workloads = []Workload{
	{"sim-mincost", "offline reproduction path: candidate tier, exact fallback, event loop and failure restore; never touches serve or HTTP"},
	{"engine-closed", "serving pipeline without the wire: MinCog routing, shard queues, COW snapshots, batched commits, telemetry, flight recorder"},
	{"http-closed", "same routing and commit work as engine-closed plus JSON and loopback HTTP; the difference is the HTTP layer"},
}

// diagnosticWorkloads run beside the gated ones in a full run and report the
// same metrics, but gate nothing and are not in BENCHMARK.json. At a
// fraction of capacity an open loop's latency is mostly the time its idle
// goroutines and vCPUs take to wake up, which other tenants of a shared host
// move far more than the program does: while they loaded it, the quartiles
// of ten http-open runs' median latency lay 0.5-0.7 of the median apart,
// beyond the 0.25 that any bound may allow.
var diagnosticWorkloads = []Workload{
	{"http-open", "Poisson arrivals sent on schedule at about 40% of http-closed capacity; a stall delays every request that comes due during it"},
}

func allWorkloads() []Workload { return slices.Concat(workloads, diagnosticWorkloads) }

func isDiagnostic(workload string) bool {
	return slices.ContainsFunc(diagnosticWorkloads, func(w Workload) bool { return w.Name == workload })
}

// EndToEnd is a metric a user of the system sees. Bound is the share of the
// parent's median by which the metric may get worse before a change counts
// as a regression.
type EndToEnd struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd is reported by every workload on every untraced run. Throughput
// and latency quantiles are medians over the run's windows; acceptance is
// accepted ÷ offered provisions (1 − blocking); cost_mean is the mean Eq. 1
// pair cost of accepted provisions; rss_mb is the median resident set.
var endToEnd = []EndToEnd{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"latency_p50_us", "us", "lower", 0.25},
	{"acceptance", "ratio", "higher", 0.03},
	{"cost_mean", "eq1", "lower", 0.02},
	{"rss_mb", "MB", "lower", 0.25},
}

// diagnostics are printed and kept in results.json beside the end-to-end
// metrics, but gate nothing. The tail quantiles spread more from run to run
// on a shared two-core host than the largest bound a gate may use;
// host_speed is the factor the run's times were scaled by (hostspeed.go):
// a time divided by it, or a rate multiplied by it, is what the run
// measured on its own clock.
var diagnostics = []EndToEnd{
	{"latency_p99_us", "us", "lower", 0},
	{"latency_p999_us", "us", "lower", 0},
	{"host_speed", "ratio", "higher", 0},
}

// Pair names one end-to-end metric on one workload.
type Pair struct {
	Metric   string
	Workload string
}

// ungated are the pairs compare reports without gating on them: on the seed
// commit their five runs in a set did not repeat within a tenth of the
// median ((max − min) ÷ median > 0.10 in set A or B of baseline.md).
// BENCHMARK.json has no per-pair entry, so its bounds still apply to them.
// Every pair of a diagnostic workload is ungated too.
var ungated = map[Pair]bool{
	{"setup_s", "sim-mincost"}:          true,
	{"setup_s", "engine-closed"}:        true,
	{"setup_s", "http-closed"}:          true,
	{"ops_per_s", "sim-mincost"}:        true,
	{"ops_per_s", "engine-closed"}:      true,
	{"latency_p50_us", "sim-mincost"}:   true,
	{"latency_p50_us", "engine-closed"}: true,
	{"latency_p50_us", "http-closed"}:   true,
}

// PerLayer is a metric of one layer, reported by every workload on every
// traced run. Moves lists where a change in it should show end to end; an
// empty list marks a validity check that should move nothing.
type PerLayer struct {
	Name   string
	Unit   string
	Better string
	Moves  []Pair
}

var (
	exactMoves = []Pair{{"ops_per_s", "sim-mincost"}, {"latency_p50_us", "engine-closed"}, {"ops_per_s", "engine-closed"}}
	allocMoves = []Pair{{"ops_per_s", "engine-closed"}, {"latency_p50_us", "http-closed"}, {"ops_per_s", "sim-mincost"}}
)

// perLayer is reported by every workload on every traced run. Kernel and
// router rows are timed on the state the workload captured (the sim network
// at its middle arrival, or the engine snapshot at the end of the timed
// phase); the core.route_us, pipeline.self_us and runtime rows describe the
// run itself.
var perLayer = []PerLayer{
	{"graph.dijkstra_ns", "ns", "lower", exactMoves},
	{"graph.dijkstra_allocs", "count", "lower", allocMoves},
	{"disjoint.suurballe_ns", "ns", "lower", exactMoves},
	{"disjoint.suurballe_allocs", "count", "lower", allocMoves},
	{"auxgraph.reweight_at_ns", "ns", "lower", exactMoves},
	{"auxgraph.reweight_at_allocs", "count", "lower", allocMoves},
	{"lightpath.assign_into_ns", "ns", "lower", []Pair{{"ops_per_s", "sim-mincost"}}},
	{"lightpath.assign_into_allocs", "count", "lower", []Pair{{"ops_per_s", "sim-mincost"}}},
	{"serve.decode_request_ns", "ns", "lower", []Pair{{"latency_p50_us", "http-closed"}}},
	{"core.route_candidate_us", "us", "lower", []Pair{{"ops_per_s", "sim-mincost"}}},
	{"core.route_exact_us", "us", "lower", []Pair{{"ops_per_s", "sim-mincost"}}},
	{"core.route_mincog_us", "us", "lower", []Pair{{"latency_p50_us", "engine-closed"}, {"ops_per_s", "engine-closed"}, {"ops_per_s", "http-closed"}}},
	{"core.candidate_hit_ratio", "ratio", "higher", []Pair{{"ops_per_s", "sim-mincost"}}},
	{"core.route_us", "us", "lower", []Pair{{"ops_per_s", "sim-mincost"}, {"latency_p50_us", "engine-closed"}, {"latency_p50_us", "http-closed"}}},
	{"pipeline.self_us", "us", "lower", []Pair{{"ops_per_s", "sim-mincost"}, {"ops_per_s", "engine-closed"}, {"latency_p50_us", "http-closed"}}},
	{"loadgen.cycle_gap_us", "us", "lower", nil},
	{"runtime.allocs_per_op", "count", "lower", allocMoves},
	{"runtime.bytes_per_op", "B", "lower", allocMoves},
	{"runtime.gc_cpu_frac", "ratio", "lower", allocMoves},
}

func endToEndByName(name string) (EndToEnd, bool) {
	for _, m := range endToEnd {
		if m.Name == name {
			return m, true
		}
	}
	return EndToEnd{}, false
}

// metricRef is a declared metric's name and unit.
type metricRef struct{ name, unit string }

// declared lists every metric: end-to-end metrics, then diagnostics, then
// per-layer metrics.
func declared() []metricRef {
	var out []metricRef
	for _, m := range endToEnd {
		out = append(out, metricRef{m.Name, m.Unit})
	}
	for _, m := range diagnostics {
		out = append(out, metricRef{m.Name, m.Unit})
	}
	for _, m := range perLayer {
		out = append(out, metricRef{m.Name, m.Unit})
	}
	return out
}

func unitOf(name string) string {
	for _, m := range declared() {
		if m.name == name {
			return m.unit
		}
	}
	return ""
}
