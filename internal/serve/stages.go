package serve

import (
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/timeseries"
	"repro/internal/wdm"
)

// stageNanos is the per-request latency attribution ledger. The route and
// teardown paths and finishOp stamp contiguous wall-clock segments into it
// so that
//
//	queue + snap + route + commit + reroute == requestTime
//
// holds by construction (every stamp closes the previous segment; finishOp
// folds the tail into commit). The identity is what makes the stage timers
// trustworthy for capacity work: a stage sum that drifts from the end-to-end
// histogram means unattributed time, and TestStageSumMatchesRequestTime pins
// the two within 5% on a soak.
//
// Segment boundaries:
//
//	queue   t0 → router taken (dispatch, validation, waiting for a free
//	        router); a teardown takes no router: t0 → commit call
//	snap    router taken → snapshot loaded (provision and reroute)
//	route   snapshot → routing done, first attempt only
//	commit  routing done (a teardown: its commit call) → commit verdict,
//	        first attempt (waiting for the commit lock, apply, publish),
//	        plus returning the router
//	reroute whole retry attempts after a lost commit race (snapshot + route +
//	        commit of attempts ≥ 2, attributed as one stage)
//
// All fields live inside the op, so stage accounting adds zero allocations
// to the //wdm:hotpath route loop — TestProvisionAllocs pins that budget.
type stageNanos struct {
	queue   int64
	snap    int64
	route   int64
	commit  int64
	reroute int64
	tier    core.Tier // routing tier of the first attempt
}

// observeStages folds one finished request's ledger into the engine's stage
// timers, which the per-window telemetry histograms read. Zero-valued stages
// are skipped so e.g. teardowns (which never route) do not pollute the route
// histogram's count; skipping zeros cannot break the sum identity because a
// zero adds nothing to any Sum().
func (e *Engine) observeStages(o *op) {
	d := time.Duration(o.st.queue)
	e.instr.stageQueue.Observe(d)
	if o.st.snap > 0 {
		e.instr.stageSnapshot.Observe(time.Duration(o.st.snap))
	}
	if o.st.route > 0 {
		rd := time.Duration(o.st.route)
		e.instr.stageRoute.Observe(rd)
		if o.st.tier == core.TierCandidate {
			e.instr.stageRouteCand.Observe(rd)
		} else {
			e.instr.stageRouteEx.Observe(rd)
		}
	}
	if o.st.commit > 0 {
		e.instr.stageCommit.Observe(time.Duration(o.st.commit))
	}
	if o.st.reroute > 0 {
		e.instr.stageReroute.Observe(time.Duration(o.st.reroute))
	}
}

// noteContention charges commit-time reservation conflicts to the links that
// caused them. It runs under the commit lock right after the failed
// reservation rolled back, so a hop whose wavelength is unavailable in cur is
// exactly a hop some other connection beat this op to.
func (e *Engine) noteContention(o *op) {
	cur := e.store.cur
	for _, hs := range [2][]wdm.Hop{o.pair.Primary, o.pair.Backup} {
		for _, h := range hs {
			if h.Link >= 0 && h.Link < len(e.contention) && !cur.Link(h.Link).HasAvail(h.Wavelength) {
				e.contention[h.Link].Add(1)
			}
		}
	}
}

// topContention returns the k most conflict-charged links, descending, with
// current load joined in from the sealed NetState. It runs once per telemetry
// window (cold path); links that never caused a conflict are omitted.
func (e *Engine) topContention(k int, ns *timeseries.NetState) []timeseries.LinkContention {
	out := make([]timeseries.LinkContention, 0, k)
	for id := range e.contention {
		n := e.contention[id].Load()
		if n == 0 {
			continue
		}
		lc := timeseries.LinkContention{Link: id, Conflicts: n}
		if id < len(ns.Links) {
			lc.From, lc.To, lc.Load = ns.Links[id].From, ns.Links[id].To, ns.Links[id].Load
		}
		out = append(out, lc)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Conflicts != out[j].Conflicts {
			return out[i].Conflicts > out[j].Conflicts
		}
		return out[i].Link < out[j].Link
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}
