package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/conns"
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
	iterations              int
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
		iterations:  r.Iterations,
		primaryHops: fmtHops(r.Primary),
		backupHops:  fmtHops(r.Backup),
	}
}

// routeAlg routes (s, d) on net with ApproxMinCost, MinLoad or MinLoadCost
// for alg 0, 1 or 2.
func routeAlg(r *Router, alg int, net *wdm.Network, s, d int) (*Result, bool) {
	switch alg {
	case 0:
		return r.ApproxMinCost(net, s, d)
	case 1:
		return r.MinLoad(net, s, d)
	}
	return r.MinLoadCost(net, s, d)
}

// TestRouterMatchesOneShotOnStream is the differential test for the
// reweight-in-place hot path: the same request stream is routed twice — once
// with a fresh Router per request (every call builds its auxiliary graph from
// scratch) and once with a single reused Router (skeletons built once, then
// reweighted incrementally as reservations accumulate and connections tear
// down). A third arm routes on one reused Router with Options.ReuseResult,
// whose results live in the router's arena until the next call. Each arm
// owns a network clone, in its own connection table, driven through the
// identical admit/teardown sequence; every routing decision must match exactly.
func TestRouterMatchesOneShotOnStream(t *testing.T) {
	base := topo.NSFNET(topo.Config{W: 4})
	netFresh := base.Clone()
	netWarm := base.Clone()
	netReuse := base.Clone()
	tabs := [3]*conns.Table[struct{}]{conns.New[struct{}](netFresh), conns.New[struct{}](netWarm), conns.New[struct{}](netReuse)}
	arms := [3]string{"fresh", "warm", "ReuseResult"}
	warm := NewRouter(nil)
	reuse := NewRouter(&Options{ReuseResult: true})
	rng := rand.New(rand.NewSource(99))

	var established []int64
	routed, blocked := 0, 0
	for i := 0; i < 160; i++ {
		s := rng.Intn(base.Nodes())
		d := rng.Intn(base.Nodes() - 1)
		if d >= s {
			d++
		}
		rF, okF := routeAlg(NewRouter(nil), i%3, netFresh, s, d)
		rW, okW := routeAlg(warm, i%3, netWarm, s, d)
		rR, okR := routeAlg(reuse, i%3, netReuse, s, d)
		kF, kW, kR := keyOf(netFresh, rF, okF), keyOf(netWarm, rW, okW), keyOf(netReuse, rR, okR)
		if kF != kW {
			t.Fatalf("request %d (%d->%d, alg %d): fresh %+v != warm %+v", i, s, d, i%3, kF, kW)
		}
		if kR != kW {
			t.Fatalf("request %d (%d->%d, alg %d): ReuseResult %+v != default %+v", i, s, d, i%3, kR, kW)
		}
		if !okF {
			blocked++
			continue
		}
		routed++
		// The table copies each pair, so a ReuseResult result need not
		// outlive the next routing call.
		for a, r := range [3]*Result{rF, rW, rR} {
			if _, err := tabs[a].Admit(int64(i), s, d, r.Pair()); err != nil {
				t.Fatalf("request %d: %s admit: %v", i, arms[a], err)
			}
		}
		established = append(established, int64(i))
		// Tear a random earlier connection down every few arrivals so the
		// stream exercises Release (and the conversion-cache invalidation)
		// as well as Use.
		if len(established) > 4 && i%5 == 4 {
			j := rng.Intn(len(established))
			id := established[j]
			established = append(established[:j], established[j+1:]...)
			for a, tab := range tabs {
				if _, err := tab.Teardown(id); err != nil {
					t.Fatalf("request %d: %s teardown: %v", i, arms[a], err)
				}
			}
		}
		lF, lW, lR := netFresh.NetworkLoad(), netWarm.NetworkLoad(), netReuse.NetworkLoad()
		if lF != lW || lR != lW {
			t.Fatalf("request %d: network load diverged: fresh %v warm %v ReuseResult %v", i, lF, lW, lR)
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

// TestWarmRouterFollowsOnlySoundSnapshots alternates one warm Router over a
// writer's copy-on-write snapshots and three networks its skeleton must not
// follow: a diverged Clone at an equal StateVersion (another lineage), an
// older snapshot of the same lineage, and snapshots after a SetConverter
// (another TopoVersion). Every result must be bit-identical to a fresh
// Router's on the same network, and the skeleton must be kept exactly on the
// forward moves within one lineage.
func TestWarmRouterFollowsOnlySoundSnapshots(t *testing.T) {
	base := topo.NSFNET(topo.Config{W: 4})
	writer, diverged := base.Clone(), base.Clone()
	rngW, rngD := rand.New(rand.NewSource(3)), rand.New(rand.NewSource(4))
	// churn makes k availability changes, so two networks churned from equal
	// versions by equal k stay at equal versions with different states.
	churn := func(rng *rand.Rand, net *wdm.Network, k int) {
		for k > 0 {
			id, lam := rng.Intn(net.Links()), rng.Intn(net.W())
			var err error
			if net.Link(id).HasAvail(lam) {
				if rng.Intn(4) == 0 {
					continue // bias towards reservations so loads spread
				}
				err = net.Use(id, lam)
			} else {
				err = net.Release(id, lam)
			}
			if err != nil {
				t.Fatal(err)
			}
			k--
		}
	}

	warm := NewRouter(nil)
	route := func(step string, net *wdm.Network) {
		t.Helper()
		for i := 0; i < 6; i++ {
			s, d := (i*5+1)%net.Nodes(), (i*3+8)%net.Nodes()
			if s == d {
				continue
			}
			rF, okF := routeAlg(NewRouter(nil), i%3, net, s, d)
			rW, okW := routeAlg(warm, i%3, net, s, d)
			if kF, kW := keyOf(net, rF, okF), keyOf(net, rW, okW); kF != kW {
				t.Fatalf("%s (%d->%d, alg %d): fresh %+v != warm %+v", step, s, d, i%3, kF, kW)
			}
		}
	}
	// expect routes net and checks whether the skeleton survived the move.
	expect := func(step string, net *wdm.Network, kept bool) {
		t.Helper()
		before := warm.shared[0]
		route(step, net)
		if got := warm.shared[0] == before; got != kept {
			t.Fatalf("%s: skeleton kept=%v, want %v", step, got, kept)
		}
	}

	prev := writer.CloneSince(nil)
	route("epoch 0", prev)
	for round := 1; round <= 12; round++ {
		churn(rngW, writer, 6)
		churn(rngD, diverged, 6)
		if round == 7 {
			writer.SetConverter(3, wdm.NoConverter{})
			diverged.SetConverter(3, wdm.NoConverter{})
		}
		snap := writer.CloneSince(prev)
		if snap.StateVersion() != diverged.StateVersion() {
			t.Fatalf("round %d: versions %d vs %d", round, snap.StateVersion(), diverged.StateVersion())
		}
		// Forward within the lineage, from the previous round's older
		// snapshot: kept, except in the two rounds whose move crosses the
		// converter swap, where TopoVersion moved.
		expect(fmt.Sprintf("round %d snapshot", round), snap, round != 7 && round != 8)
		expect(fmt.Sprintf("round %d diverged clone", round), diverged, false)
		expect(fmt.Sprintf("round %d snapshot again", round), snap, false)
		expect(fmt.Sprintf("round %d older snapshot", round), prev, false)
		prev = snap
	}
}
