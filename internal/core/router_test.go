package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/parallel"
	"repro/internal/topo"
	"repro/internal/wdm"
)

// resultKey captures everything a routing decision influences downstream:
// feasibility, costs, load, and the exact hop sequences.
type resultKey struct {
	ok                      bool
	cost, auxWeight, load   float64
	threshold               float64
	primaryHops, backupHops string
}

func keyOf(net *wdm.Network, r *Result, ok bool) resultKey {
	if !ok {
		return resultKey{}
	}
	fmtHops := func(p *wdm.Semilightpath) string {
		s := ""
		for _, h := range p.Hops {
			s += string(rune('A'+h.Link%26)) + string(rune('0'+h.Wavelength%10))
		}
		return s
	}
	return resultKey{
		ok:          true,
		cost:        r.Cost,
		auxWeight:   r.AuxWeight,
		load:        r.PathLoad,
		threshold:   r.Threshold,
		primaryHops: fmtHops(r.Primary),
		backupHops:  fmtHops(r.Backup),
	}
}

// TestRouterMatchesOneShotOnStream is the differential test for the
// reweight-in-place hot path: the same request stream is routed twice — once
// with a fresh Router per request (every call builds its auxiliary graph from
// scratch) and once with a single reused Router (skeletons built once, then
// reweighted incrementally as reservations accumulate and connections tear
// down). Each arm owns a network clone driven through the identical
// establish/teardown sequence; every routing decision must match exactly.
func TestRouterMatchesOneShotOnStream(t *testing.T) {
	base := topo.NSFNET(topo.Config{W: 4})
	netFresh := base.Clone()
	netWarm := base.Clone()
	warm := NewRouter(nil)
	rng := rand.New(rand.NewSource(99))

	type live struct{ fresh, warm *Result }
	var established []live
	routed, blocked := 0, 0
	for i := 0; i < 160; i++ {
		s := rng.Intn(base.Nodes())
		d := rng.Intn(base.Nodes() - 1)
		if d >= s {
			d++
		}
		var rF, rW *Result
		var okF, okW bool
		switch i % 3 {
		case 0:
			rF, okF = NewRouter(nil).ApproxMinCost(netFresh, s, d)
			rW, okW = warm.ApproxMinCost(netWarm, s, d)
		case 1:
			rF, okF = NewRouter(nil).MinLoad(netFresh, s, d)
			rW, okW = warm.MinLoad(netWarm, s, d)
		case 2:
			rF, okF = NewRouter(nil).MinLoadCost(netFresh, s, d)
			rW, okW = warm.MinLoadCost(netWarm, s, d)
		}
		kF, kW := keyOf(netFresh, rF, okF), keyOf(netWarm, rW, okW)
		if kF != kW {
			t.Fatalf("request %d (%d->%d, alg %d): fresh %+v != warm %+v", i, s, d, i%3, kF, kW)
		}
		if !okF {
			blocked++
			continue
		}
		routed++
		if err := Establish(netFresh, rF); err != nil {
			t.Fatalf("request %d: fresh establish: %v", i, err)
		}
		if err := Establish(netWarm, rW); err != nil {
			t.Fatalf("request %d: warm establish: %v", i, err)
		}
		// The warm result aliases router workspaces only for the aux pair,
		// not the semilightpaths, so retaining it across calls is safe.
		established = append(established, live{fresh: rF, warm: rW})
		// Tear a random earlier connection down every few arrivals so the
		// stream exercises Release (and the conversion-cache invalidation)
		// as well as Use.
		if len(established) > 4 && i%5 == 4 {
			j := rng.Intn(len(established))
			c := established[j]
			established = append(established[:j], established[j+1:]...)
			if err := Teardown(netFresh, c.fresh); err != nil {
				t.Fatalf("request %d: fresh teardown: %v", i, err)
			}
			if err := Teardown(netWarm, c.warm); err != nil {
				t.Fatalf("request %d: warm teardown: %v", i, err)
			}
		}
		if lF, lW := netFresh.NetworkLoad(), netWarm.NetworkLoad(); lF != lW {
			t.Fatalf("request %d: network load diverged: fresh %v warm %v", i, lF, lW)
		}
	}
	if routed == 0 || blocked == 0 {
		t.Fatalf("stream not exercising both outcomes: routed=%d blocked=%d", routed, blocked)
	}
}

// TestRouterRebindAndTopoInvalidation covers the two skeleton-invalidation
// paths: routing on a different network drops the cache, and a structural
// change (AddLink) on the same network forces a rebuild via TopoVersion.
func TestRouterRebindAndTopoInvalidation(t *testing.T) {
	r := NewRouter(nil)
	net1 := topo.NSFNET(topo.Config{W: 4})
	res1, ok := r.ApproxMinCost(net1, 0, 9)
	if !ok {
		t.Fatal("route on net1 failed")
	}

	// Rebind to a different network.
	net2 := topo.Ring(8, topo.Config{W: 4})
	if _, ok := r.ApproxMinCost(net2, 0, 4); !ok {
		t.Fatal("route on net2 failed")
	}

	// Structural change: add a cheap shortcut 0→9 plus return fibers; the
	// cached skeleton must be rebuilt, and the new link must be usable.
	net1.AddUniformLink(0, 9, 0.01)
	net1.AddUniformLink(9, 0, 0.01)
	res2, ok := r.ApproxMinCost(net1, 0, 9)
	if !ok {
		t.Fatal("route after AddLink failed")
	}
	if res2.Cost >= res1.Cost {
		t.Fatalf("shortcut not used after AddLink: cost %v -> %v", res1.Cost, res2.Cost)
	}
	uses := false
	for _, h := range res2.Primary.Hops {
		if h.Link >= net1.Links()-2 {
			uses = true
		}
	}
	if !uses {
		t.Fatal("primary does not use the new shortcut link")
	}
}

// TestRouterParallelPerWorker runs one Router per worker goroutine over
// independent network clones — the sweep pattern of the bench harness. Run
// under -race this doubles as the data-race check for the workspace reuse;
// the assertion checks cross-worker determinism (every worker that routes
// sample i gets the result a fresh one-shot call gets).
func TestRouterParallelPerWorker(t *testing.T) {
	base := topo.NSFNET(topo.Config{W: 4})
	const n = 64
	type out struct {
		cost float64
		ok   bool
	}
	want := make([]out, n)
	for i := 0; i < n; i++ {
		net := base.Clone()
		s, d := i%14, (i*5+3)%14
		if s == d {
			continue
		}
		r, ok := NewRouter(nil).ApproxMinCost(net, s, d)
		if ok {
			want[i] = out{cost: r.Cost, ok: true}
		}
	}
	got := parallel.MapWithState(n, 8,
		func() *Router { return NewRouter(nil) },
		func(rt *Router, i int) out {
			net := base.Clone()
			s, d := i%14, (i*5+3)%14
			if s == d {
				return out{}
			}
			r, ok := rt.ApproxMinCost(net, s, d)
			if !ok {
				return out{}
			}
			return out{cost: r.Cost, ok: true}
		})
	for i := range want {
		if want[i].ok != got[i].ok || math.Abs(want[i].cost-got[i].cost) > 1e-12 {
			t.Fatalf("sample %d: sequential %+v != parallel %+v", i, want[i], got[i])
		}
	}
}
