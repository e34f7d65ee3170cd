package wdm

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// snapNet builds a small test network: 4 nodes in a ring, W=4, uniform cost.
func snapNet(t *testing.T) *Network {
	t.Helper()
	net := NewNetwork(4, 4)
	for v := 0; v < 4; v++ {
		net.AddUniformPair(v, (v+1)%4, 1)
	}
	return net
}

// availEqual compares the availability sets of two networks link by link.
func availEqual(a, b *Network) bool {
	if a.Links() != b.Links() {
		return false
	}
	for id := 0; id < a.Links(); id++ {
		as, bs := a.Link(id).Avail().Slice(), b.Link(id).Avail().Slice()
		if len(as) != len(bs) {
			return false
		}
		for i := range as {
			if as[i] != bs[i] {
				return false
			}
		}
	}
	return true
}

func TestCloneSinceSnapshotIsolation(t *testing.T) {
	net := snapNet(t)
	snap0 := net.CloneSince(nil)

	// A chain of epochs: mutate, snapshot, mutate again; every published
	// snapshot must keep showing the state it was taken at, and no two
	// networks may share a link record.
	if err := net.Use(0, 0); err != nil {
		t.Fatal(err)
	}
	snap1 := net.CloneSince(snap0)
	if err := net.Use(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := net.Use(5, 3); err != nil {
		t.Fatal(err)
	}
	snap2 := net.CloneSince(snap1)

	for id := 0; id < net.Links(); id++ {
		for _, pair := range [][2]*Network{{snap0, snap1}, {snap1, snap2}, {snap2, net}} {
			if a, b := pair[0].Link(id), pair[1].Link(id); a == b || a.Avail() == b.Avail() {
				t.Fatalf("link %d: two networks share a link record or availability set", id)
			}
		}
	}
	if !snap0.Link(0).HasAvail(0) {
		t.Fatal("snap0 lost λ0 on link 0")
	}
	if snap1.Link(0).HasAvail(0) || !snap1.Link(0).HasAvail(1) {
		t.Fatal("snap1 does not reflect exactly the first epoch's state")
	}
	if snap1.Link(5).Avail().Count() != 4 {
		t.Fatal("snap1 shows the second epoch's write on link 5")
	}
	if snap2.Link(0).HasAvail(1) || snap2.Link(5).HasAvail(3) {
		t.Fatal("snap2 does not reflect the second epoch's writes")
	}
	if !availEqual(snap2, net) {
		t.Fatal("snap2 availability differs from the source network")
	}
}

// TestCloneSinceTopoChangeFallsBackToFullClone: structure is shared with prev
// only while it is unchanged since prev — a new link or a converter swap
// (both bump TopoVersion) gives the copy its own.
func TestCloneSinceTopoChangeFallsBackToFullClone(t *testing.T) {
	net := snapNet(t)
	snap0 := net.CloneSince(nil)
	if same := net.CloneSince(snap0); same.Converter(1) != snap0.Converter(1) || &same.Out(1)[0] != &snap0.Out(1)[0] {
		t.Fatal("an unchanged topology did not share prev's structure")
	}

	net.AddUniformLink(0, 2, 2)
	snap1 := net.CloneSince(snap0)
	if snap1.Links() != net.Links() || len(snap1.Out(0)) != len(net.Out(0)) {
		t.Fatalf("snap1 has %d links, want %d", snap1.Links(), net.Links())
	}
	if &snap1.Out(1)[0] == &snap0.Out(1)[0] {
		t.Fatal("adjacency shared across a TopoVersion change")
	}
	// Converter swaps also bump topo and must defeat sharing.
	snap2 := net.CloneSince(snap1)
	net.SetConverter(1, NewRangeConverter(1, 2))
	snap3 := net.CloneSince(snap2)
	if snap3.Converter(1) == snap2.Converter(1) {
		t.Fatal("snap3 shares the swapped converter with snap2")
	}
	if snap3.Converter(1) != net.Converter(1) {
		t.Fatal("snap3 does not carry the swapped converter")
	}
}

func TestCloneSinceNilPrev(t *testing.T) {
	net := snapNet(t)
	if err := net.Use(1, 1); err != nil {
		t.Fatal(err)
	}
	snap := net.CloneSince(nil)
	if !availEqual(snap, net) {
		t.Fatal("CloneSince(nil) is not a faithful clone")
	}
	if snap.StateVersion() != net.StateVersion() || snap.TopoVersion() != net.TopoVersion() {
		t.Fatal("version counters not carried over")
	}
}

func TestCloneSinceCostAndLoadIntact(t *testing.T) {
	net := snapNet(t)
	snap0 := net.CloneSince(nil)
	if err := net.Use(2, 0); err != nil {
		t.Fatal(err)
	}
	snap := net.CloneSince(snap0)
	for id := 0; id < net.Links(); id++ {
		for lam := 0; lam < net.W(); lam++ {
			if got, want := snap.Link(id).Cost(lam), net.Link(id).Cost(lam); got != want &&
				!(math.IsInf(got, 1) && math.IsInf(want, 1)) {
				t.Fatalf("link %d λ%d cost %g, want %g", id, lam, got, want)
			}
		}
	}
	if got, want := snap.NetworkLoad(), net.NetworkLoad(); got != want {
		t.Fatalf("snapshot load %g, want %g", got, want)
	}
}

// TestLineage pins which copies share a lineage: NewNetwork and Clone start
// a new one (the copy may diverge), CloneSince keeps its receiver's with or
// without a prev to share structure with, transitively, and SyncInto leaves
// it alone.
func TestLineage(t *testing.T) {
	net := snapNet(t)
	if !net.SameLineage(net) {
		t.Fatal("a network is not of its own lineage")
	}
	if other := snapNet(t); net.SameLineage(other) {
		t.Fatal("two NewNetworks share a lineage")
	}
	clone := net.Clone()
	if net.SameLineage(clone) || clone.SameLineage(net) {
		t.Fatal("Clone kept its source's lineage")
	}
	if clone2 := net.Clone(); clone.SameLineage(clone2) {
		t.Fatal("two Clones of one network share a lineage")
	}

	snap0 := net.CloneSince(nil)
	if !net.SameLineage(snap0) || !snap0.SameLineage(net) {
		t.Fatal("CloneSince(nil) dropped the lineage")
	}
	if err := net.Use(0, 1); err != nil {
		t.Fatal(err)
	}
	snap1 := net.CloneSince(snap0) // shares snap0's structure
	if !net.SameLineage(snap1) || !snap0.SameLineage(snap1) {
		t.Fatal("CloneSince(prev) dropped the lineage")
	}
	if snap1.SameLineage(clone) {
		t.Fatal("a snapshot shares a lineage with a Clone of its writer")
	}
	if again := snap1.CloneSince(nil); !again.SameLineage(net) {
		t.Fatal("CloneSince of a snapshot dropped the writer's lineage")
	}
	if !net.SyncInto(snap0) || !snap0.SameLineage(net) {
		t.Fatal("SyncInto refused a stale snapshot or changed its lineage")
	}
	if fork := snap1.Clone(); fork.SameLineage(net) {
		t.Fatal("Clone of a snapshot kept the writer's lineage")
	}
}

// netState is everything SyncInto promises to carry: per-link availability
// words and U, the stamp journal, StateVersion and TopoVersion.
type netState struct {
	avail         [][]int
	u             []int
	stamp         []uint64
	version, topo uint64
}

func stateOf(g *Network) netState {
	s := netState{stamp: slices.Clone(g.stamp), version: g.StateVersion(), topo: g.TopoVersion()}
	for id := 0; id < g.Links(); id++ {
		s.avail = append(s.avail, g.Link(id).Avail().Slice())
		s.u = append(s.u, g.Link(id).U())
	}
	return s
}

func (s netState) equal(o netState) bool {
	if len(s.avail) != len(o.avail) || !slices.Equal(s.u, o.u) || !slices.Equal(s.stamp, o.stamp) ||
		s.version != o.version || s.topo != o.topo {
		return false
	}
	for i := range s.avail {
		if !slices.Equal(s.avail[i], o.avail[i]) {
			return false
		}
	}
	return true
}

// TestSyncIntoMatchesWriter applies random Use, Release and
// release-everything sequences to a writer (W up to 70, so sets span several
// words), taking frozen copies along the way. Every so often a random stale
// copy is synced: afterwards it must equal the writer in availability, U,
// stamps, versions and lineage, and every copy not synced must still show
// the state it was taken at.
func TestSyncIntoMatchesWriter(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w := 1 + rng.Intn(70)
		g := NewNetwork(5, w)
		for v := 0; v < 5; v++ {
			g.AddUniformPair(v, (v+1)%5, 1)
			g.AddUniformLink(v, (v+2)%5, 2)
		}
		type frozen struct {
			net *Network
			at  netState
		}
		var copies []frozen
		for step := 0; step < 400; step++ {
			switch op := rng.Intn(20); {
			case op < 9:
				l := g.Link(rng.Intn(g.Links()))
				if free := l.Avail().Slice(); len(free) > 0 {
					if err := g.Use(l.ID, free[rng.Intn(len(free))]); err != nil {
						t.Fatal(err)
					}
				}
			case op < 15:
				l := g.Link(rng.Intn(g.Links()))
				var held []Wavelength
				l.Lambda().ForEach(func(lam int) bool {
					if !l.HasAvail(lam) {
						held = append(held, lam)
					}
					return true
				})
				if len(held) > 0 {
					if err := g.Release(l.ID, held[rng.Intn(len(held))]); err != nil {
						t.Fatal(err)
					}
				}
			case op < 16:
				releaseAll(t, g)
			case op < 18:
				var prev *Network
				if len(copies) > 0 {
					prev = copies[len(copies)-1].net
				}
				c := g.CloneSince(prev)
				copies = append(copies, frozen{c, stateOf(c)})
			default:
				if len(copies) == 0 {
					continue
				}
				i := rng.Intn(len(copies))
				if !g.SyncInto(copies[i].net) {
					t.Fatalf("seed %d step %d: SyncInto refused a stale copy", seed, step)
				}
				copies[i].at = stateOf(copies[i].net)
				if want := stateOf(g); !copies[i].at.equal(want) || !copies[i].net.SameLineage(g) {
					t.Fatalf("seed %d step %d: synced copy differs from the writer", seed, step)
				}
			}
			for i, c := range copies {
				if !stateOf(c.net).equal(c.at) {
					t.Fatalf("seed %d step %d: copy %d changed without a sync", seed, step, i)
				}
			}
		}
	}
}

// TestSyncIntoRefuses: a copy of another lineage, one taken at another
// topology, and one newer than the source are refused and left untouched.
func TestSyncIntoRefuses(t *testing.T) {
	net := snapNet(t)
	if err := net.Use(0, 0); err != nil {
		t.Fatal(err)
	}
	old := net.CloneSince(nil)
	if err := net.Use(1, 1); err != nil {
		t.Fatal(err)
	}
	newer := net.CloneSince(old)
	foreign := net.Clone() // same state, new lineage
	if err := foreign.Use(2, 2); err != nil {
		t.Fatal(err)
	}

	check := func(what string, src, dst *Network) {
		t.Helper()
		before := stateOf(dst)
		if src.SyncInto(dst) {
			t.Fatalf("%s: SyncInto accepted", what)
		}
		if !stateOf(dst).equal(before) {
			t.Fatalf("%s: refused SyncInto changed its destination", what)
		}
	}
	check("foreign lineage", net, foreign)
	check("newer copy", old, newer)

	net.SetConverter(3, NewRangeConverter(1, 2)) // topology bump, same link count
	check("converter swap", net, old)
	net2 := snapNet(t)
	stale := net2.CloneSince(nil)
	net2.AddUniformLink(0, 2, 1)
	check("new link", net2, stale)
}
