// Package wdm is a fixture mirroring the shape of the real network type:
// exported methods that mutate state must call bumpState or bumpTopo.
package wdm

// set stands in for the bitset availability sets.
type set struct{ bits []uint64 }

// Add is a recognised mutator method.
func (s *set) Add(i int) { s.bits[0] |= 1 << uint(i) }

// Network mirrors the real wdm.Network.
type Network struct {
	links        []int
	avail        *set
	scratch      int
	stateVersion uint64
	topoVersion  uint64
	stamp        []uint64
}

func (g *Network) bumpState() { g.stateVersion++ }

func (g *Network) bumpTopo() {
	g.topoVersion++
	g.stateVersion++
}

func (g *Network) touchLink(i int) {
	g.bumpState()
	g.stamp[i] = g.stateVersion
}

// Links is a getter: no mutation, no bump required.
func (g *Network) Links() int { return len(g.links) }

// AddLink mutates topology and bumps: clean.
func (g *Network) AddLink(w int) {
	g.links = append(g.links, w)
	g.bumpTopo()
}

// UseGood mutates residual state and bumps: clean.
func (g *Network) UseGood(i int) {
	g.links[i] = -g.links[i]
	g.bumpState()
}

// UseInline bumps through the raw counter, which also counts: clean.
func (g *Network) UseInline(i int) {
	g.links[i] = 1
	g.stateVersion++
}

// UseBad mutates without bumping: finding.
func (g *Network) UseBad(i int) {
	g.links[i] = 0
}

// Alias mutates through a local alias of receiver state: finding.
func (g *Network) Alias() {
	ls := g.links
	ls[0] = 9
}

// Mutate calls a mutator method on reachable state without bumping: finding.
func (g *Network) Mutate(i int) {
	g.avail.Add(i)
}

// Reserve delegates to a checked sibling: clean (the callee bumps).
func (g *Network) Reserve(i int) {
	g.UseGood(i)
}

// UseStamped mutates availability and stamps the link journal (touchLink
// bumps transitively): clean.
func (g *Network) UseStamped(i int) {
	g.avail.Add(i)
	g.touchLink(i)
}

// AvailBumpOnly mutates availability but only bumps the aggregate counter,
// so the per-link journal misses the change: finding.
func (g *Network) AvailBumpOnly(i int) {
	g.avail.Add(i)
	g.bumpState()
}

// AvailStructural mutates availability under a topology bump, which
// invalidates cached weights wholesale: clean.
func (g *Network) AvailStructural(i int) {
	g.avail.Add(i)
	g.bumpTopo()
}

// SetScratch writes a field no cache reads; the suppression records why.
func (g *Network) SetScratch(v int) { //wdmlint:ignore versionbump scratch feeds no derived cache
	g.scratch = v
}
