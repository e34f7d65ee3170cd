package wdm

// CloneSince returns a full copy of g's residual state for publication as a
// frozen read snapshot of g's lineage (see SameLineage), so caches derived
// from earlier snapshots of the same writer may follow it forward. Every link
// record and availability set is the copy's own: no two networks share one,
// which is what lets SyncInto later bring the copy forward in place.
//
// Structure (adjacency, converters) is shared with prev when prev is a
// snapshot of g's lineage at g's TopoVersion — structure that has not changed
// since prev was taken. A nil prev, or one from another lineage or an older
// topology, gets its own copy. Per-link wavelength inventories (Λ(e)) and
// cost tables are shared with g itself: they are write-once at AddLink and
// never mutated afterwards. The receiver is not mutated.
func (g *Network) CloneSince(prev *Network) *Network {
	if prev == nil || !prev.SameLineage(g) || prev.topoVersion != g.topoVersion ||
		len(prev.links) != len(g.links) {
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
		stateVersion: g.stateVersion,
		topoVersion:  g.topoVersion,
		stamp:        append([]uint64(nil), g.stamp...),
		lineage:      g.lineage,
		links:        make([]*Link, len(g.links)),
		rho:          g.rho,
		rhoN:         g.rhoN,
	}
	for i, l := range g.links {
		c.links[i] = &Link{
			ID:     l.ID,
			From:   l.From,
			To:     l.To,
			lambda: l.lambda, // write-once after AddLink; safe to share with g
			avail:  l.avail.Clone(),
			cost:   l.cost, // write-once after AddLink; safe to share with g
			n:      l.n,
			u:      l.u,
		}
	}
	return c
}

// SyncInto brings dst — a CloneSince copy of g's lineage taken at an earlier
// state — up to g's current state in place, and reports whether it did. Only
// the links stamped after dst.StateVersion() are copied (their availability
// words and U), then the stamp journal, the version and the network load,
// so a sync costs one pass over the stamps plus the links that changed in
// between, and allocates nothing. Afterwards dst holds g's availability
// sets, counters, ρ, stamps and StateVersion: within the lineage it is the same state, which
// is what lets a cache derived from dst's older state follow it forward.
//
// It refuses, leaving dst unchanged, when dst is of another lineage, was
// taken at another TopoVersion or with another link count, or is newer than
// g. dst must not be read while it syncs: it is a snapshot taken out of
// publication, which the caller owns again.
func (g *Network) SyncInto(dst *Network) bool {
	if dst.lineage != g.lineage || dst.topoVersion != g.topoVersion ||
		len(dst.links) != len(g.links) || dst.stateVersion > g.stateVersion {
		return false
	}
	at := dst.stateVersion
	for i, l := range g.links {
		if g.stamp[i] > at {
			d := dst.links[i]
			d.avail.CopyFrom(l.avail)
			d.u = l.u
		}
	}
	copy(dst.stamp, g.stamp)
	dst.stateVersion = g.stateVersion
	dst.rho, dst.rhoN = g.rho, g.rhoN
	return true
}
