package wdm

import (
	"math"
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

func TestCloneSinceSharesUntouchedLinks(t *testing.T) {
	net := snapNet(t)
	snap0 := net.Clone()
	v0 := net.StateVersion()

	// Touch exactly one link.
	if err := net.Use(3, 2); err != nil {
		t.Fatal(err)
	}
	snap1 := net.CloneSince(snap0, v0)

	for id := 0; id < net.Links(); id++ {
		shared := snap1.Link(id) == snap0.Link(id)
		if id == 3 && shared {
			t.Errorf("link %d was touched but snap1 shares snap0's record", id)
		}
		if id != 3 && !shared {
			t.Errorf("link %d untouched but snap1 copied it", id)
		}
	}
	if !availEqual(snap1, net) {
		t.Fatal("snap1 availability differs from the source network")
	}
	if snap1.Link(3).HasAvail(2) {
		t.Fatal("snap1 shows λ2 available on link 3 after Use")
	}
	if !snap0.Link(3).HasAvail(2) {
		t.Fatal("snap0 (frozen) lost λ2 on link 3 — COW leaked a write")
	}
}

func TestCloneSinceSnapshotIsolation(t *testing.T) {
	net := snapNet(t)
	snap0 := net.Clone()
	v0 := net.StateVersion()

	// A chain of epochs: mutate, snapshot, mutate again; every published
	// snapshot must keep showing the state it was taken at.
	if err := net.Use(0, 0); err != nil {
		t.Fatal(err)
	}
	snap1 := net.CloneSince(snap0, v0)
	v1 := net.StateVersion()
	if err := net.Use(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := net.Use(5, 3); err != nil {
		t.Fatal(err)
	}
	snap2 := net.CloneSince(snap1, v1)

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

// TestCloneSinceSlabRecordsStayFrozen: a publish carves its copied link
// records from shared slabs, so every published snapshot must keep showing
// exactly the state it was taken at while the writer keeps mutating and
// publishing over a long chain of epochs.
func TestCloneSinceSlabRecordsStayFrozen(t *testing.T) {
	net := NewNetwork(6, 70) // two words per availability set
	for v := 0; v < 6; v++ {
		net.AddUniformPair(v, (v+1)%6, 1)
		net.AddUniformPair(v, (v+2)%6, 2)
	}
	type frozen struct {
		snap  *Network
		avail [][]int
	}
	record := func(s *Network) frozen {
		f := frozen{snap: s}
		for id := 0; id < s.Links(); id++ {
			f.avail = append(f.avail, s.Link(id).Avail().Slice())
		}
		return f
	}
	snaps := []frozen{record(net.CloneSince(nil, 0))}
	v := net.StateVersion()
	used := map[[2]int]bool{}
	for epoch := 1; epoch <= 200; epoch++ {
		for k := 0; k < 1+epoch%4; k++ { // touch a few links per epoch
			id, lam := (epoch*7+k*5)%net.Links(), (epoch*13+k*29)%net.W()
			key := [2]int{id, lam}
			var err error
			if used[key] {
				err = net.Release(id, lam)
			} else {
				err = net.Use(id, lam)
			}
			if err != nil {
				t.Fatal(err)
			}
			used[key] = !used[key]
		}
		snaps = append(snaps, record(net.CloneSince(snaps[len(snaps)-1].snap, v)))
		v = net.StateVersion()
	}
	if !availEqual(snaps[len(snaps)-1].snap, net) {
		t.Fatal("latest snapshot differs from the writer")
	}
	for i, f := range snaps {
		for id := 0; id < f.snap.Links(); id++ {
			l := f.snap.Link(id)
			got := l.Avail().Slice()
			if len(got) != len(f.avail[id]) || l.ID != id || l.Avail().Cap() != net.W() {
				t.Fatalf("epoch %d link %d changed after publish: %v, published %v", i, id, got, f.avail[id])
			}
			for j := range got {
				if got[j] != f.avail[id][j] {
					t.Fatalf("epoch %d link %d changed after publish: %v, published %v", i, id, got, f.avail[id])
				}
			}
		}
	}
}

func TestCloneSinceTopoChangeFallsBackToFullClone(t *testing.T) {
	net := snapNet(t)
	snap0 := net.Clone()
	v0 := net.StateVersion()

	net.AddUniformLink(0, 2, 2)
	snap1 := net.CloneSince(snap0, v0)
	if snap1.Links() != net.Links() {
		t.Fatalf("snap1 has %d links, want %d", snap1.Links(), net.Links())
	}
	for id := 0; id < snap0.Links(); id++ {
		if snap1.Link(id) == snap0.Link(id) {
			t.Fatalf("link %d shared across a TopoVersion change", id)
		}
	}
	// Converter swaps also bump topo and must defeat sharing.
	snap2 := net.Clone()
	v2 := net.StateVersion()
	net.SetConverter(1, NewRangeConverter(1, 2))
	snap3 := net.CloneSince(snap2, v2)
	if snap3.Converter(1) == snap2.Converter(1) {
		t.Fatal("snap3 shares the swapped converter with snap2")
	}
}

func TestCloneSinceNilPrev(t *testing.T) {
	net := snapNet(t)
	if err := net.Use(1, 1); err != nil {
		t.Fatal(err)
	}
	snap := net.CloneSince(nil, 0)
	if !availEqual(snap, net) {
		t.Fatal("CloneSince(nil, _) is not a faithful clone")
	}
	if snap.StateVersion() != net.StateVersion() || snap.TopoVersion() != net.TopoVersion() {
		t.Fatal("version counters not carried over")
	}
}

func TestCloneSinceCostAndLoadIntact(t *testing.T) {
	net := snapNet(t)
	snap0 := net.Clone()
	v0 := net.StateVersion()
	if err := net.Use(2, 0); err != nil {
		t.Fatal(err)
	}
	snap := net.CloneSince(snap0, v0)
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
// a new one (the copy may diverge), CloneSince keeps its receiver's on both
// its copy-on-write path and its nil-prev full-copy fallback, transitively.
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

	snap0 := net.CloneSince(nil, 0) // full-copy fallback
	v0 := net.StateVersion()
	if !net.SameLineage(snap0) || !snap0.SameLineage(net) {
		t.Fatal("CloneSince(nil, _) dropped the lineage")
	}
	if err := net.Use(0, 1); err != nil {
		t.Fatal(err)
	}
	snap1 := net.CloneSince(snap0, v0) // copy-on-write path
	if snap1.links[1] != snap0.links[1] {
		t.Fatal("expected the copy-on-write path (untouched link shared)")
	}
	if !net.SameLineage(snap1) || !snap0.SameLineage(snap1) {
		t.Fatal("CloneSince(prev, v) dropped the lineage")
	}
	if snap1.SameLineage(clone) {
		t.Fatal("a snapshot shares a lineage with a Clone of its writer")
	}
	if again := snap1.CloneSince(nil, 0); !again.SameLineage(net) {
		t.Fatal("CloneSince of a snapshot dropped the writer's lineage")
	}
	if fork := snap1.Clone(); fork.SameLineage(net) {
		t.Fatal("Clone of a snapshot kept the writer's lineage")
	}
}
