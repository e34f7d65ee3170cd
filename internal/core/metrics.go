package core

import "repro/internal/metrics"

// instruments holds the package's metric hooks; nil (the default) means off.
type instruments struct {
	routeCalls *metrics.Counter
	routeFound *metrics.Counter

	// Per-phase timing of the Lemma 2 refinement and of the §4.1 MinCog
	// threshold search as a whole. The aux-graph and Suurballe phases are
	// timed where they run: auxgraph_build_seconds and
	// auxgraph_reweight_seconds, disjoint_suurballe_seconds.
	phaseRefine *metrics.Timer
	phaseMinCog *metrics.Timer

	// mincogIters is the theta-iteration count per MinCog search.
	mincogIters *metrics.Histogram
	// refineRatio is refined cost / first-fit cost per routed pair (≤ 1 by
	// Lemma 2; how far below 1 measures what the refinement buys).
	refineRatio *metrics.Histogram
	// firstFitFallbacks counts routes kept on the first-fit assignment
	// because the refinement was infeasible (restricted converters).
	firstFitFallbacks *metrics.Counter

	// candidateHits/candidateFallbacks split requests that entered the
	// candidate fast tier: served from a cached pair vs fell through to the
	// exact aux-graph pipeline.
	candidateHits      *metrics.Counter
	candidateFallbacks *metrics.Counter
}

var instr instruments

// EnableMetrics registers the package's instruments on r and routes all
// subsequent routing calls through them. A nil registry disables them.
func EnableMetrics(r *metrics.Registry) {
	instr = instruments{
		routeCalls:         r.Counter("core_route_calls_total", "routing requests handled"),
		routeFound:         r.Counter("core_route_found_total", "routing requests that found a disjoint pair"),
		phaseRefine:        r.Timer("core_phase_refine_seconds", "Lemma 2 refinement phase time"),
		phaseMinCog:        r.Timer("core_phase_mincog_seconds", "MinCog threshold search phase time"),
		mincogIters:        r.Histogram("core_mincog_iterations", "theta iterations per MinCog search", metrics.LogBuckets(1, 128, 4)),
		refineRatio:        r.Histogram("core_refine_improvement_ratio", "refined cost / first-fit cost per pair", metrics.LogBuckets(0.125, 8, 9)),
		firstFitFallbacks:  r.Counter("core_firstfit_fallback_total", "routes kept on first-fit because refinement was infeasible"),
		candidateHits:      r.Counter("core_candidate_hits_total", "requests served by the candidate fast tier"),
		candidateFallbacks: r.Counter("core_candidate_fallback_total", "candidate-tier misses that fell back to exact routing"),
	}
}
