//go:build !race

// Allocation-regression tests, excluded from -race runs (the detector's
// instrumentation breaks testing.AllocsPerOp accounting).
package core

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/topo"
	"repro/internal/wdm"
)

// Allocation budgets for a warm Router on NSFNET (W=8). The graph search,
// the refinement and the candidate tier build their result in router-owned
// buffers and allocate nothing once the candidate table has generated the
// pair's entry (the first call fills it); a router without Options.ReuseResult then
// copies the result out, which costs 5 allocs/op (the Result, two
// semilightpath headers, two hop slices) on every tier and objective. A
// ReuseResult router allocates nothing. The budget leaves one alloc of
// headroom over the copy.
const (
	approxMinCostAllocBudget = 6
	minLoadAllocBudget       = 6
	minLoadCostAllocBudget   = 6
)

func TestWarmRouterAllocBudget(t *testing.T) {
	net := topo.NSFNET(topo.Config{W: 8})
	tab := NewCandidateTable(net, 4)
	for _, tc := range []struct {
		name   string
		opts   Options
		alg    int // routeAlg's index
		tier   Tier
		budget float64
	}{
		{"ApproxMinCost", Options{}, 0, TierExact, approxMinCostAllocBudget},
		{"MinLoad", Options{}, 1, TierExact, minLoadAllocBudget},
		{"MinLoadCost", Options{}, 2, TierExact, minLoadCostAllocBudget},
		{"ApproxMinCost/candidate", Options{CandidateTable: tab}, 0, TierCandidate, approxMinCostAllocBudget},
		{"MinLoadCost/candidate", Options{CandidateTable: tab}, 2, TierCandidate, minLoadCostAllocBudget},
		{"ApproxMinCost/reuse", Options{ReuseResult: true}, 0, TierExact, 0},
		{"MinLoad/reuse", Options{ReuseResult: true}, 1, TierExact, 0},
		{"MinLoadCost/reuse", Options{ReuseResult: true}, 2, TierExact, 0},
		{"ApproxMinCost/candidate/reuse", Options{CandidateTable: tab, ReuseResult: true}, 0, TierCandidate, 0},
		{"MinLoadCost/candidate/reuse", Options{CandidateTable: tab, ReuseResult: true}, 2, TierCandidate, 0},
	} {
		r := NewRouter(&tc.opts)
		if _, ok := routeAlg(r, tc.alg, net, 2, 11); !ok {
			t.Fatalf("%s: 2->11 failed", tc.name)
		}
		if r.LastTier() != tc.tier {
			t.Fatalf("%s: answered by the %v tier, want %v", tc.name, r.LastTier(), tc.tier)
		}
		allocs := testing.AllocsPerRun(100, func() {
			routeAlg(r, tc.alg, net, 2, 11)
		})
		if allocs > tc.budget {
			t.Errorf("warm Router %s = %.0f allocs/op, budget %.0f", tc.name, allocs, tc.budget)
		}
	}
}

// TestBlockedFallbackAllocatesNothing: a request the candidate tier
// declines and the feasibility test blocks costs a warm router no
// allocation, with or without Options.ReuseResult (a block copies nothing
// out).
func TestBlockedFallbackAllocatesNothing(t *testing.T) {
	net := topo.NSFNET(topo.Config{W: 8})
	for _, id := range net.Out(2)[1:] { // node 2 keeps one usable out-link
		for lam := 0; lam < net.W(); lam++ {
			if err := net.Use(id, lam); err != nil {
				t.Fatal(err)
			}
		}
	}
	tab := NewCandidateTable(net, 4)
	for _, reuse := range []bool{false, true} {
		r := NewRouter(&Options{CandidateTable: tab, ReuseResult: reuse})
		if _, ok := r.ApproxMinCost(net, 2, 11); ok || r.LastTier() != TierFallback {
			t.Fatalf("reuse %v: ok %v, tier %v; want a blocked fallback", reuse, ok, r.LastTier())
		}
		if allocs := testing.AllocsPerRun(100, func() { r.ApproxMinCost(net, 2, 11) }); allocs != 0 {
			t.Errorf("reuse %v: blocked fallback = %.0f allocs/op, want 0", reuse, allocs)
		}
	}
}

// TestTracerDisabledAddsNoAllocs pins the observability contract of the
// zero-allocation work: a Router whose tracer was detached must allocate
// exactly as much per request as a Router that never had one — the off
// switch is one nil check, not a dormant code path that still builds
// traces.
func TestTracerDisabledAddsNoAllocs(t *testing.T) {
	net := topo.NSFNET(topo.Config{W: 8})

	plain := NewRouter(nil)
	if _, ok := plain.ApproxMinCost(net, 0, 9); !ok {
		t.Fatal("ApproxMinCost failed")
	}
	base := testing.AllocsPerRun(200, func() {
		plain.ApproxMinCost(net, 0, 9)
	})

	traced := NewRouter(nil)
	tr := obs.New(obs.Config{})
	traced.SetTracer(tr)
	if _, ok := traced.ApproxMinCost(net, 0, 9); !ok {
		t.Fatal("ApproxMinCost failed")
	}
	traced.SetTracer(nil)
	withTracer := testing.AllocsPerRun(200, func() {
		traced.ApproxMinCost(net, 0, 9)
	})

	if withTracer != base {
		t.Errorf("detached tracer changed allocs/op: %.0f after detaching vs %.0f never traced", withTracer, base)
	}
	if n := tr.Flight().Total(); n != 1 {
		t.Errorf("detached tracer recorded %d traces, want the 1 before detaching", n)
	}
}

// TestWarmRouterSnapshotStreamAllocBudget pins the serving pattern: a warm
// Router routing each successive CloneSince snapshot of one writer — a new
// *wdm.Network per request — follows its skeleton forward instead of
// rebuilding it, so it stays within the same-network MinLoad budget.
func TestWarmRouterSnapshotStreamAllocBudget(t *testing.T) {
	writer := topo.NSFNET(topo.Config{W: 8})
	// AllocsPerRun(100) makes 101 calls; one more routes outside the window.
	snaps := make([]*wdm.Network, 102)
	snaps[0] = writer.CloneSince(nil)
	for i := 1; i < len(snaps); i++ {
		id, lam := i%writer.Links(), (i/writer.Links())%writer.W()
		if err := writer.Use(id, lam); err != nil {
			t.Fatal(err)
		}
		snaps[i] = writer.CloneSince(snaps[i-1])
	}
	r := NewRouter(nil)
	if _, ok := r.MinLoad(snaps[0], 2, 11); !ok {
		t.Fatal("MinLoad failed")
	}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		i++
		r.MinLoad(snaps[i], 2, 11)
	})
	if allocs > minLoadAllocBudget {
		t.Errorf("warm Router.MinLoad over a snapshot stream = %.0f allocs/op, budget %d", allocs, minLoadAllocBudget)
	}
}

// TestTracedMinLoadCostAddsNoAllocs pins the recycling flight recorder: once
// the ring has wrapped and its recycled buffers have grown to the largest
// request shape, a traced MinLoadCost — spans, attributes, the explain
// capture, the flight-recorder hand-over — allocates exactly as much as the
// same request untraced. The pairs vary, so recycled buffers meet requests
// of different hop counts and MinCog round counts.
func TestTracedMinLoadCostAddsNoAllocs(t *testing.T) {
	net := topo.NSFNET(topo.Config{W: 8})
	pairs := [][2]int{{0, 9}, {2, 11}, {1, 13}, {5, 12}, {3, 7}, {4, 10}}
	const capacity = 4
	tr := obs.New(obs.Config{Capacity: capacity})
	traced := NewRouter(nil)
	traced.SetTracer(tr)
	plain := NewRouter(nil)

	measure := func(r *Router) float64 {
		i := 0
		route := func() {
			p := pairs[i%len(pairs)]
			i++
			if _, ok := r.MinLoadCost(net, p[0], p[1]); !ok {
				t.Fatalf("MinLoadCost %d→%d failed", p[0], p[1])
			}
		}
		for w := 0; w < 20*len(pairs)*(capacity+1); w++ {
			route()
		}
		i = 0
		return testing.AllocsPerRun(10*len(pairs), route)
	}
	base, withTracer := measure(plain), measure(traced)
	if total := tr.Flight().Total(); total <= capacity {
		t.Fatalf("flight recorder saw %d traces; the ring never wrapped", total)
	}
	if withTracer != base {
		t.Errorf("tracing adds %.1f allocs/op to a warm MinLoadCost once the ring has wrapped (%.1f traced vs %.1f untraced)",
			withTracer-base, withTracer, base)
	}
}
