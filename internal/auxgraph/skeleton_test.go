package auxgraph

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/wdm"
)

// randomSkeletonNet builds a small network with partial wavelength sets,
// mixed converters and random residual usage, so some conversion pairs are
// infeasible and some links filtered.
func randomSkeletonNet(rng *rand.Rand) *wdm.Network {
	n := 4 + rng.Intn(4)
	w := 2 + rng.Intn(2)
	net := wdm.NewNetwork(n, w)
	addLink := func(u, v int) {
		var lams []wdm.Wavelength
		var costs []float64
		for l := 0; l < w; l++ {
			if rng.Float64() < 0.7 {
				lams = append(lams, wdm.Wavelength(l))
				costs = append(costs, 1+rng.Float64())
			}
		}
		if len(lams) == 0 {
			lams, costs = []wdm.Wavelength{0}, []float64{1}
		}
		net.AddLink(u, v, lams, costs)
	}
	for v := 0; v < n; v++ {
		addLink(v, (v+1)%n)
		addLink((v+1)%n, v)
	}
	for i := 0; i < n; i++ {
		if u, v := rng.Intn(n), rng.Intn(n); u != v {
			addLink(u, v)
		}
	}
	for v := 0; v < n; v++ {
		if rng.Float64() < 0.5 {
			net.SetConverter(v, wdm.NoConverter{})
		} else {
			net.SetConverter(v, wdm.NewFullConverter(w, rng.Float64()))
		}
	}
	useRandom(rng, net, 0.3)
	return net
}

// useRandom reserves each available wavelength with probability p.
func useRandom(rng *rand.Rand, net *wdm.Network, p float64) {
	for id := 0; id < net.Links(); id++ {
		for l := 0; l < net.W(); l++ {
			if net.Link(id).HasAvail(wdm.Wavelength(l)) && rng.Float64() < p {
				net.Use(id, wdm.Wavelength(l))
			}
		}
	}
}

func randomPair(rng *rand.Rand, n int) (int, int) {
	s := rng.Intn(n)
	t := rng.Intn(n - 1)
	if t >= s {
		t++
	}
	return s, t
}

// sameView reports the first difference between two reweighted skeletons'
// enabled-edge sets and enabled-edge weights, or nil.
func sameView(got, want *Aux) error {
	if got.G.N() != want.G.N() || got.G.M() != want.G.M() {
		return fmt.Errorf("size %d/%d vs %d/%d", got.G.N(), got.G.M(), want.G.N(), want.G.M())
	}
	if got.S != want.S || got.T != want.T {
		return fmt.Errorf("terminals (%d,%d) vs (%d,%d)", got.S, got.T, want.S, want.T)
	}
	for id := 0; id < got.G.M(); id++ {
		if got.G.Disabled(id) != want.G.Disabled(id) {
			return fmt.Errorf("edge %d disabled=%v, fresh %v", id, got.G.Disabled(id), want.G.Disabled(id))
		}
		if !got.G.Disabled(id) && got.G.Edge(id).Weight != want.G.Edge(id).Weight {
			return fmt.Errorf("edge %d weight %g, fresh %g", id, got.G.Edge(id).Weight, want.G.Edge(id).Weight)
		}
	}
	return nil
}

// checkGating verifies the node-disjoint gating for pair (s, t): plain
// conversion edges may be enabled only at s and t, hubs and spokes only
// elsewhere, each exactly when a surviving feasible pair backs it.
func checkGating(sk *Skeleton, s, t int) error {
	g, keep := sk.aux.G, sk.aux.keep
	live := func(i int) bool {
		cp := sk.pairs[i]
		return keep[cp.ein] && keep[cp.eout] && sk.pairOK[i]
	}
	for i, cp := range sk.pairs {
		want := (cp.node == s || cp.node == t) && live(i)
		if on := !g.Disabled(cp.edge); on != want {
			return fmt.Errorf("plain conversion at node %d enabled=%v, want %v", cp.node, on, want)
		}
	}
	for _, hb := range sk.hubs {
		terminal := hb.node == s || hb.node == t
		want := false
		for i := hb.pairLo; i < hb.pairHi && !terminal; i++ {
			want = want || live(i)
		}
		if on := !g.Disabled(hb.hubEdge); on != want {
			return fmt.Errorf("hub at node %d enabled=%v, want %v", hb.node, on, want)
		}
		for _, r := range sk.spokes[hb.spokeLo:hb.spokeHi] {
			if on := !g.Disabled(r.edge); on != (!terminal && keep[r.link]) {
				return fmt.Errorf("spoke at node %d enabled=%v", hb.node, on)
			}
		}
	}
	return nil
}

// checkAdmission runs an admission pass for (s, t) on warm, letting in the
// links with an available wavelength and load below a random ϑ in random
// groups. On the physical graph (every node converts fully) the enabled
// edges must be exactly the admitted links, from s to t. On the aux graph
// they must be exactly the edges fresh, a skeleton of the same network,
// keeps in G_c at ϑ. Each Admit must return exactly the edges it enabled.
func checkAdmission(rng *rand.Rand, warm, fresh *Skeleton, s, t int) error {
	net := warm.aux.net
	theta := rng.Float64() * 1.1
	g, src, dst := warm.BeginAdmit(s, t)
	phys := g != warm.aux.G
	if phys != (allFullConversion(net) && s != t) {
		return fmt.Errorf("pass on the physical graph %v, full conversion %v", phys, allFullConversion(net))
	}
	var links []int
	for _, id := range rng.Perm(net.Links()) {
		if l := net.Link(id); !l.Avail().Empty() && l.Load() < theta {
			links = append(links, id)
		}
	}
	admitted := map[int]bool{}
	for len(links) > 0 {
		k := 1 + rng.Intn(len(links))
		was := make([]bool, g.M())
		for id := range was {
			was[id] = !g.Disabled(id)
		}
		returned := map[int]bool{}
		for _, id := range warm.Admit(links[:k]) {
			returned[id] = true
		}
		for _, id := range links[:k] {
			admitted[id] = true
		}
		links = links[k:]
		for id := 0; id < g.M(); id++ {
			if enabled := !was[id] && !g.Disabled(id); enabled != returned[id] {
				return fmt.Errorf("edge %d newly enabled %v, returned by Admit %v", id, enabled, returned[id])
			}
		}
	}
	if phys {
		if src != s || dst != t {
			return fmt.Errorf("physical pass from %d to %d, want %d to %d", src, dst, s, t)
		}
		for id := 0; id < g.M(); id++ {
			if g.Disabled(id) == admitted[id] {
				return fmt.Errorf("ϑ=%g: link %d disabled=%v after the pass, admitted %v", theta, id, g.Disabled(id), admitted[id])
			}
		}
		return nil
	}
	want := fresh.ReweightAt(s, t, Params{Kind: Load, Threshold: theta})
	if src != want.S || dst != want.T {
		return fmt.Errorf("terminals (%d,%d) vs (%d,%d)", src, dst, want.S, want.T)
	}
	for id := 0; id < g.M(); id++ {
		if g.Disabled(id) != want.G.Disabled(id) {
			return fmt.Errorf("ϑ=%g: edge %d disabled=%v after the pass, %v in G_c", theta, id, g.Disabled(id), want.G.Disabled(id))
		}
	}
	return nil
}

// Property: over both skeleton kinds and all three variants, a skeleton that
// switches through a sequence of pairs — with reservations and, on the
// shared kind, admission passes in between — reweights every pair exactly
// as a freshly built skeleton does, and the node-disjoint kind turns on hubs
// at exactly V∖{s,t} and plain conversion at exactly {s,t}.
func TestQuickReweightAtPairSwitching(t *testing.T) {
	kinds := []Kind{Cost, Load, LoadCost}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nets := []*wdm.Network{randomSkeletonNet(rng)}
		if seed%3 == 0 { // admission passes on it run on the physical graph
			full := randomSkeletonNet(rng)
			full.SetAllConverters(wdm.NewFullConverter(full.W(), 0.4))
			nets = append(nets, full)
		}
		for _, net := range nets {
			for _, nd := range []bool{false, true} {
				mk := NewSharedSkeleton
				if nd {
					mk = NewNodeDisjointSkeleton
				}
				warm := mk(net)
				for step := 0; step < 6; step++ {
					s, d := randomPair(rng, net.Nodes())
					if !nd && rng.Intn(2) == 0 {
						if err := checkAdmission(rng, warm, mk(net), s, d); err != nil {
							t.Logf("seed %d step %d (%d,%d) admission: %v", seed, step, s, d, err)
							return false
						}
					}
					p := Params{Kind: kinds[rng.Intn(len(kinds))], Threshold: 0.3 + rng.Float64()}
					got := warm.ReweightAt(s, d, p)
					if err := sameView(got, mk(net).ReweightAt(s, d, p)); err != nil {
						t.Logf("seed %d nd=%v step %d (%d,%d) %v: %v", seed, nd, step, s, d, p.Kind, err)
						return false
					}
					if nd {
						if err := checkGating(warm, s, d); err != nil {
							t.Logf("seed %d step %d (%d,%d): %v", seed, step, s, d, err)
							return false
						}
					}
					if rng.Intn(2) == 0 {
						useRandom(rng, net, 0.1)
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// releaseRandom releases each in-use wavelength with probability p.
func releaseRandom(rng *rand.Rand, net *wdm.Network, p float64) {
	for id := 0; id < net.Links(); id++ {
		l := net.Link(id)
		for lam := 0; lam < net.W(); lam++ {
			if l.Lambda().Contains(lam) && !l.HasAvail(lam) && rng.Float64() < p {
				net.Release(id, lam)
			}
		}
	}
}

// Property: a skeleton that follows a writer's copy-on-write snapshots
// forward reweights every snapshot exactly as a skeleton freshly built on
// it does, over both kinds and all three variants, with reservations and
// releases between snapshots.
func TestQuickFollowMatchesFresh(t *testing.T) {
	kinds := []Kind{Cost, Load, LoadCost}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		writer := randomSkeletonNet(rng)
		for _, nd := range []bool{false, true} {
			mk := NewSharedSkeleton
			if nd {
				mk = NewNodeDisjointSkeleton
			}
			snap := writer.CloneSince(nil)
			warm := mk(snap)
			for step := 0; step < 8; step++ {
				if step > 0 {
					if rng.Intn(3) > 0 {
						useRandom(rng, writer, 0.15)
					}
					if rng.Intn(3) == 0 {
						releaseRandom(rng, writer, 0.3)
					}
					snap = writer.CloneSince(snap)
					if !warm.Follow(snap) {
						t.Logf("seed %d nd=%v step %d: Follow refused a later snapshot", seed, nd, step)
						return false
					}
				}
				for k := 0; k < 2; k++ {
					s, d := randomPair(rng, snap.Nodes())
					p := Params{Kind: kinds[rng.Intn(len(kinds))], Threshold: 0.3 + rng.Float64()}
					if err := sameView(warm.ReweightAt(s, d, p), mk(snap).ReweightAt(s, d, p)); err != nil {
						t.Logf("seed %d nd=%v step %d (%d,%d) %v: %v", seed, nd, step, s, d, p.Kind, err)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestFollowRefusesUnsoundMoves covers each condition Follow checks: another
// lineage at an equal StateVersion, an older state of the same lineage, and
// a structural change. A refused Follow leaves the skeleton serving its old
// network.
func TestFollowRefusesUnsoundMoves(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	writer := randomSkeletonNet(rng)
	diverged := writer.Clone()
	old := writer.CloneSince(nil)
	// One reservation each, on different links: equal StateVersions,
	// different states.
	var free [][2]int
	for id := 0; id < writer.Links(); id++ {
		if lam := writer.Link(id).Avail().Slice(); len(lam) > 0 {
			free = append(free, [2]int{id, lam[0]})
		}
	}
	if err := writer.Use(free[0][0], free[0][1]); err != nil {
		t.Fatal(err)
	}
	if err := diverged.Use(free[1][0], free[1][1]); err != nil {
		t.Fatal(err)
	}
	cur := writer.CloneSince(old)
	sk := NewSharedSkeleton(cur)
	sk.ReweightAt(0, 1, Params{Kind: Cost})

	if diverged.StateVersion() != cur.StateVersion() {
		t.Fatalf("versions %d vs %d; the diverged case needs them equal", diverged.StateVersion(), cur.StateVersion())
	}
	if sk.Follow(diverged) {
		t.Error("Follow accepted another lineage")
	}
	if sk.Follow(old) {
		t.Error("Follow accepted an older snapshot")
	}
	writer.SetConverter(0, wdm.NoConverter{})
	if sk.Follow(writer.CloneSince(cur)) {
		t.Error("Follow accepted a structural change")
	}
	if got := sk.ReweightAt(0, 1, Params{Kind: Cost}).net; got != cur {
		t.Error("a refused Follow moved the skeleton")
	}
	if !sk.Follow(cur) {
		t.Error("Follow refused the network it already serves")
	}
}
