package wdm

import (
	"fmt"
	"math/rand"
	"testing"
)

// releaseAll tears down every connection of g: it releases every held
// wavelength, link by link, through Release.
func releaseAll(t *testing.T, g *Network) {
	t.Helper()
	for id := 0; id < g.Links(); id++ {
		l := g.Link(id)
		for lam := 0; lam < g.W(); lam++ {
			if l.Lambda().Contains(lam) && !l.HasAvail(lam) {
				if err := g.Release(id, lam); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// checkCounters asserts that every link's N() and U() equal the
// cardinalities they stand for, |Λ(e)| and |Λ(e)| − |Λ_avail(e)|, and that
// Load and NetworkLoad follow from them by Eq. 2.
func checkCounters(t *testing.T, what string, g *Network) {
	t.Helper()
	rho := 0.0
	for id := 0; id < g.Links(); id++ {
		l := g.Link(id)
		n, u := l.Lambda().Count(), l.Lambda().Count()-l.Avail().Count()
		if l.N() != n || l.U() != u {
			t.Fatalf("%s link %d: N()=%d U()=%d, sets say %d and %d", what, id, l.N(), l.U(), n, u)
		}
		load := 1.0
		if n > 0 {
			load = float64(u) / float64(n)
			rho = max(rho, load)
		}
		if l.Load() != load {
			t.Fatalf("%s link %d: Load()=%v, want %v", what, id, l.Load(), load)
		}
	}
	if g.NetworkLoad() != rho {
		t.Fatalf("%s: NetworkLoad()=%v, want %v", what, g.NetworkLoad(), rho)
	}
}

// TestOccupancyCountersFollowSets applies random sequences of Use, Release,
// release-everything, Clone, CloneSince and SyncInto to networks whose links
// carry random wavelength subsets (W up to 70, so sets span several words).
// After every step the counters of every writer and every snapshot must
// match their sets: a writer's mutation must neither skip its own counters
// nor leak into a snapshot, and a sync must carry U with the sets.
func TestOccupancyCountersFollowSets(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w := 1 + rng.Intn(70)
		nodes := 2 + rng.Intn(4)
		g := NewNetwork(nodes, w)
		for i := 0; i < 2*nodes; i++ {
			var lams []Wavelength
			var costs []float64
			for lam := 0; lam < w; lam++ {
				if rng.Intn(4) > 0 {
					lams = append(lams, lam)
					costs = append(costs, 1)
				}
			}
			a := rng.Intn(nodes)
			g.AddLink(a, (a+1+rng.Intn(nodes-1))%nodes, lams, costs)
		}
		writers := []*Network{g}
		var snaps []*Network
		last := map[*Network]*Network{} // each writer's latest snapshot
		for step := 0; step < 300; step++ {
			wr := writers[rng.Intn(len(writers))]
			switch op := rng.Intn(20); {
			case op < 8: // Use a random installed, available wavelength
				l := wr.Link(rng.Intn(wr.Links()))
				if free := l.Avail().Slice(); len(free) > 0 {
					if err := wr.Use(l.ID, free[rng.Intn(len(free))]); err != nil {
						t.Fatal(err)
					}
				}
			case op < 15: // Release a random held wavelength
				l := wr.Link(rng.Intn(wr.Links()))
				var held []Wavelength
				l.Lambda().ForEach(func(lam int) bool {
					if !l.HasAvail(lam) {
						held = append(held, lam)
					}
					return true
				})
				if len(held) > 0 {
					if err := wr.Release(l.ID, held[rng.Intn(len(held))]); err != nil {
						t.Fatal(err)
					}
				}
			case op < 16:
				releaseAll(t, wr)
			case op < 17:
				writers = append(writers, wr.Clone())
			case op < 19: // publish a snapshot, sharing the previous one's structure
				prev := last[wr]
				if rng.Intn(5) == 0 {
					prev = nil // the full-copy path
				}
				s := wr.CloneSince(prev)
				last[wr] = s
				snaps = append(snaps, s)
			default: // bring a stale snapshot forward in place
				if len(snaps) > 0 {
					wr.SyncInto(snaps[rng.Intn(len(snaps))]) // refused for another writer's
				}
			}
			for i, x := range writers {
				checkCounters(t, fmt.Sprintf("seed %d step %d writer %d", seed, step, i), x)
			}
			for i, s := range snaps {
				checkCounters(t, fmt.Sprintf("seed %d step %d snapshot %d", seed, step, i), s)
			}
		}
	}
}

// scanLoad is Eq. 2 by a full scan: ρ = max ρ(e) over the links with
// N(e) > 0, and how many of those links sit at it.
func scanLoad(g *Network) (rho float64, at int) {
	for id := 0; id < g.Links(); id++ {
		l := g.Link(id)
		if l.N() == 0 {
			continue
		}
		switch r := float64(l.U()) / float64(l.N()); {
		case r > rho:
			rho, at = r, 1
		case r == rho:
			at++
		}
	}
	return rho, at
}

// TestNetworkLoadFollowsRescan applies random AddLink, Use, Release, Clone,
// CloneSince and SyncInto steps to writers whose links carry 0, 1, 2 or 4
// wavelengths, so loads tie at the maximum across links of different N
// (1/2 = 2/4) and a link with N = 0 never counts. After every step the
// maintained ρ of every writer and snapshot — NetworkLoad and the count of
// links at it — must equal a full rescan.
func TestNetworkLoadFollowsRescan(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nodes := 2 + rng.Intn(4)
		g := NewNetwork(nodes, 4)
		addLink := func(g *Network) {
			n := []int{0, 1, 2, 4}[rng.Intn(4)]
			lams, costs := make([]Wavelength, n), make([]float64, n)
			for i := range lams {
				lams[i], costs[i] = i, 1
			}
			a := rng.Intn(nodes)
			g.AddLink(a, (a+1+rng.Intn(nodes-1))%nodes, lams, costs)
		}
		writers := []*Network{g}
		var snaps []*Network
		last := map[*Network]*Network{}
		check := func(what string, x *Network) {
			t.Helper()
			if rho, at := scanLoad(x); x.NetworkLoad() != rho || x.rhoN != at {
				t.Fatalf("seed %d %s: NetworkLoad()=%v over %d links, rescan %v over %d", seed, what, x.NetworkLoad(), x.rhoN, rho, at)
			}
		}
		check("empty", g)
		for step := 0; step < 400; step++ {
			wr := writers[rng.Intn(len(writers))]
			switch op := rng.Intn(20); {
			case op < 2 || wr.Links() == 0:
				addLink(wr)
			case op < 10:
				l := wr.Link(rng.Intn(wr.Links()))
				if free := l.Avail().Slice(); len(free) > 0 {
					if err := wr.Use(l.ID, free[rng.Intn(len(free))]); err != nil {
						t.Fatal(err)
					}
				}
			case op < 16:
				l := wr.Link(rng.Intn(wr.Links()))
				for lam := 0; lam < wr.W(); lam++ {
					if l.Lambda().Contains(lam) && !l.HasAvail(lam) {
						if err := wr.Release(l.ID, lam); err != nil {
							t.Fatal(err)
						}
						break
					}
				}
			case op < 17:
				writers = append(writers, wr.Clone())
			case op < 19:
				s := wr.CloneSince(last[wr])
				last[wr] = s
				snaps = append(snaps, s)
			default:
				if len(snaps) > 0 {
					wr.SyncInto(snaps[rng.Intn(len(snaps))])
				}
			}
			for i, x := range writers {
				check(fmt.Sprintf("step %d writer %d", step, i), x)
			}
			for i, s := range snaps {
				check(fmt.Sprintf("step %d snapshot %d", step, i), s)
			}
		}
	}
}
