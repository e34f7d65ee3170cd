package serve

import (
	"container/heap"
	"testing"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/wdm"
	"repro/internal/workload"
)

// simEvent mirrors netsim's (time, seq) event ordering so the serve arm of
// the differential test processes the identical arrival/departure schedule.
type simEvent struct {
	time    float64
	seq     uint64
	arrival bool
	req     workload.Request // arrival
	id      int64            // departure
}

type simQueue []simEvent

func (q simQueue) Len() int { return len(q) }
func (q simQueue) Less(i, j int) bool {
	if q[i].time != q[j].time {
		return q[i].time < q[j].time
	}
	return q[i].seq < q[j].seq
}
func (q simQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *simQueue) Push(x any)   { *q = append(*q, x.(simEvent)) }
func (q *simQueue) Pop() any     { old := *q; n := len(old); e := old[n-1]; *q = old[:n-1]; return e }

type decision struct {
	ok   bool
	cost float64
}

// TestServeMatchesBatch is the differential gate: the same seeded Poisson
// arrival/departure sequence, run through the batch simulator (netsim.Sim)
// and through the daemon engine (requests serialized), must
// produce identical accept/block decisions and bit-exact route costs —
// provision/teardown over epoch snapshots is semantically the plain batch
// loop when concurrency is taken away. It runs at both tier settings: the
// engine's default (Candidates 0, a k = 4 table) against a sim router with
// its own k = 4 table, filled per pair on first use as the engine's is, and
// Candidates -1 against a table-less sim router, so the exact-only path
// stays covered.
func TestServeMatchesBatch(t *testing.T) {
	for _, tc := range []struct {
		name       string
		candidates int  // Config.Candidates
		simTable   bool // the sim router gets a k = 4 table
	}{
		{"default-tier", 0, true},
		{"no-tier", -1, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := &core.Options{ReuseResult: true}
			if tc.simTable {
				opts.CandidateTable = core.NewCandidateTable(nsf(8), 4)
			}
			serveMatchesBatch(t, Config{Algorithm: AlgoMinLoadCost, Candidates: tc.candidates}, opts)
		})
	}
}

// serveMatchesBatch runs the differential comparison of TestServeMatchesBatch
// with the engine configured by cfg and the sim arm's router by simOpts.
func serveMatchesBatch(t *testing.T, cfg Config, simOpts *core.Options) {
	reqs := workload.Poisson(workload.PoissonConfig{
		Nodes:       14,
		ArrivalRate: 5,
		MeanHolding: 4,
		Count:       600,
		Seed:        7,
	})

	// Sim arm: capture every routing decision in arrival-processing order
	// through RouteFunc, using a router configured exactly like the engine's
	// pooled routers.
	simRouter := core.NewRouter(simOpts)
	var simDecisions []decision
	hits := 0
	sim := netsim.New(nsf(8), netsim.Config{
		RouteFunc: func(net *wdm.Network, s, d int) (*core.Result, bool) {
			res, ok := simRouter.MinLoadCost(net, s, d)
			dec := decision{ok: ok}
			if ok {
				dec.cost = res.Cost
			}
			if simRouter.LastTier() == core.TierCandidate {
				hits++
			}
			simDecisions = append(simDecisions, dec)
			return res, ok
		},
	})
	m := sim.Run(reqs)
	if len(simDecisions) != len(reqs) {
		t.Fatalf("sim routed %d of %d arrivals", len(simDecisions), len(reqs))
	}
	if (hits > 0) != (simOpts.CandidateTable != nil) {
		t.Fatalf("the tier answered %d sim arrivals, with table %v", hits, simOpts.CandidateTable != nil)
	}

	// Serve arm: min-load-cost, driven serially in the
	// exact (time, seq) event order netsim uses — arrivals pre-pushed with
	// seq 0..n-1, departures pushed at accept time with subsequent seqs.
	e := startEngine(t, nsf(8), cfg)
	q := make(simQueue, 0, len(reqs))
	var seq uint64
	for _, r := range reqs {
		heap.Push(&q, simEvent{time: r.Arrival, seq: seq, arrival: true, req: r})
		seq++
	}
	accepted, blocked, arrivalIdx := 0, 0, 0
	for q.Len() > 0 {
		ev := heap.Pop(&q).(simEvent)
		if !ev.arrival {
			if resp := e.Teardown(ev.id); !resp.Accepted {
				t.Fatalf("serve teardown %d rejected: %+v", ev.id, resp)
			}
			continue
		}
		r := ev.req
		resp := e.Provision(Request{ID: int64(r.ID), Src: r.Src, Dst: r.Dst})
		dec := simDecisions[arrivalIdx]
		arrivalIdx++
		if resp.Accepted != dec.ok {
			t.Fatalf("arrival %d (conn %d, %d->%d): serve accepted=%v, sim accepted=%v",
				arrivalIdx-1, r.ID, r.Src, r.Dst, resp.Accepted, dec.ok)
		}
		if resp.Accepted {
			if resp.Cost != dec.cost { // bit-exact: same router, same state
				t.Fatalf("arrival %d (conn %d): serve cost %v, sim cost %v",
					arrivalIdx-1, r.ID, resp.Cost, dec.cost)
			}
			accepted++
			heap.Push(&q, simEvent{time: r.Departure(), seq: seq, id: int64(r.ID)})
			seq++
		} else {
			blocked++
			if resp.Reason != ReasonNoRoute {
				t.Fatalf("serve blocked %d for %q, want %q (serialized run cannot conflict)", r.ID, resp.Reason, ReasonNoRoute)
			}
		}
	}
	if arrivalIdx != len(reqs) {
		t.Fatalf("serve arm processed %d of %d arrivals", arrivalIdx, len(reqs))
	}

	// Aggregate decisions must agree exactly.
	if accepted != m.Accepted || blocked != m.Blocked {
		t.Fatalf("decision mismatch: serve %d accepted / %d blocked, sim %d / %d",
			accepted, blocked, m.Accepted, m.Blocked)
	}
	if m.Offered != len(reqs) {
		t.Fatalf("sim offered %d of %d", m.Offered, len(reqs))
	}

	// Strongest check: both arms end in bit-identical network states.
	_, snap := e.Snapshot()
	if !availEqual(snap, sim.Network()) {
		t.Fatal("final availability diverges between serve and batch simulator")
	}
	if e.LiveConnections() != sim.LiveConnections() {
		t.Fatalf("live connections: serve %d, sim %d", e.LiveConnections(), sim.LiveConnections())
	}
}
