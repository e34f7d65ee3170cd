// Package app exercises snapshot taint through local aliasing and chained
// calls, outside the serve package.
package app

import "fix/snapmut/wdm"

// refresh clones and mutates the clone: findings on both the direct call
// and the alias.
func refresh(g, prev *wdm.Network) *wdm.Network {
	c := g.CloneSince(prev)
	c.Use(1)
	n := c
	n.Reserve(2)
	return c
}

// chain mutates an unnamed snapshot immediately: finding.
func chain(g *wdm.Network) {
	g.CloneSince(nil).Use(3)
}

// warm mutates a network it was handed directly — not a snapshot: clean.
func warm(g *wdm.Network) {
	g.Use(0)
}

// inspect reads a snapshot: clean.
func inspect(g *wdm.Network) int {
	c := g.CloneSince(nil)
	return c.Lambdas()
}

// migrate mutates a snapshot under a recorded exception: suppressed.
func migrate(g *wdm.Network) {
	c := g.CloneSince(nil)
	c.Use(0) //wdmlint:ignore snapmut fixture records a deliberate one-off migration
}

// resync brings a cloned snapshot forward in place: finding, since SyncInto
// writes its parameter. The snapshot as SyncInto's receiver is only read:
// clean.
func resync(g *wdm.Network) {
	c := g.CloneSince(nil)
	g.SyncInto(c)
	c.SyncInto(g)
}
