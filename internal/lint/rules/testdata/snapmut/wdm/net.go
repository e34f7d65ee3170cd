// Package wdm is a fixture mirroring the real network type for the
// snapshot-mutation rule: Use mutates, Reserve mutates by delegation,
// SyncInto mutates its parameter, CloneSince and Lambdas only read.
package wdm

// Network mirrors the real wdm.Network.
type Network struct {
	links        []int
	stateVersion uint64
}

func (g *Network) bumpState() { g.stateVersion++ }

// Use mutates residual state: a seeded mutator.
func (g *Network) Use(i int) {
	g.links[i] = 0
	g.bumpState()
}

// Reserve delegates to Use: a mutator by call-graph propagation.
func (g *Network) Reserve(i int) { g.Use(i) }

// Lambdas is a getter: safe on snapshots.
func (g *Network) Lambdas() int { return len(g.links) }

// CloneSince returns a frozen copy, reading both networks and mutating
// neither — its result is the taint source.
func (g *Network) CloneSince(prev *Network) *Network {
	c := &Network{stateVersion: g.stateVersion}
	c.links = make([]int, len(g.links))
	copy(c.links, g.links)
	_ = prev
	return c
}

// SyncInto brings dst forward to g's state: it only reads its receiver and
// mutates its parameter, a seeded mutator of parameter 1.
func (g *Network) SyncInto(dst *Network) bool {
	for i, v := range g.links {
		dst.links[i] = v
	}
	dst.stateVersion = g.stateVersion
	return true
}
