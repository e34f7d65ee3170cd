package wdm

import "repro/internal/bitset"

// CloneSince returns a deep-enough copy of g for publication as an immutable
// read snapshot, sharing storage with prev — a frozen clone of the same
// network taken when g.StateVersion() was prevVersion — for every link whose
// availability has not changed since then (LinkStamp(e) ≤ prevVersion). This
// is the copy-on-write epoch layer of the serving daemon: with a per-epoch
// admission batch touching b links out of m, publishing the next snapshot
// costs O(b) link copies instead of O(m·W/64), and the shared *Link records
// are safe because both snapshots are frozen — only the authoritative
// mutable network ever writes availability sets, and it shares nothing. The
// b copied records, their availability sets and the sets' words are carved
// from three slabs, one of each per publish, so a publish makes a constant
// number of allocations whatever b is.
//
// Per-link wavelength inventories (Λ(e)) and cost tables are shared with g
// itself: they are write-once at AddLink and never mutated afterwards.
// Structure (adjacency, converters, SRLGs) is shared with prev; any
// structural change bumps TopoVersion, which forces the full-clone path.
//
// A nil prev, a TopoVersion mismatch, or a link-count mismatch falls back to
// a full copy. Either way the result keeps g's lineage (see SameLineage), so
// caches derived from earlier snapshots of the same writer may follow it
// forward. The receiver is not mutated.
func (g *Network) CloneSince(prev *Network, prevVersion uint64) *Network {
	if prev == nil || prev.topoVersion != g.topoVersion || len(prev.links) != len(g.links) ||
		prev.n != g.n || prev.w != g.w {
		c := g.Clone()
		c.lineage = g.lineage
		return c
	}
	c := &Network{
		n:            g.n,
		w:            g.w,
		out:          prev.out,
		in:           prev.in,
		conv:         prev.conv,
		srlg:         prev.srlg,
		stateVersion: g.stateVersion,
		topoVersion:  g.topoVersion,
		stamp:        append([]uint64(nil), g.stamp...),
		lineage:      g.lineage,
	}
	touched, words := 0, 0
	for i, l := range g.links {
		if g.stamp[i] > prevVersion {
			touched++
			words += l.avail.Words()
		}
	}
	recs := make([]Link, touched)
	sets := make([]bitset.Set, touched)
	buf := make([]uint64, words)
	c.links = make([]*Link, len(g.links))
	for i, l := range g.links {
		if g.stamp[i] <= prevVersion {
			// Untouched since prev was taken: share prev's frozen record.
			c.links[i] = prev.links[i]
			continue
		}
		rec, set := &recs[0], &sets[0]
		recs, sets = recs[1:], sets[1:]
		buf = l.avail.CloneInto(set, buf)
		*rec = Link{
			ID:     l.ID,
			From:   l.From,
			To:     l.To,
			lambda: l.lambda, // write-once after AddLink; safe to share with g
			avail:  set,
			cost:   l.cost, // write-once after AddLink; safe to share with g
			n:      l.n,
			u:      l.u,
		}
		c.links[i] = rec
	}
	return c
}
