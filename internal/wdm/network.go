// Package wdm models a wavelength-routed optical network after §2 of the
// paper: a directed graph G = (V, E, Λ) where each link e carries a
// wavelength set Λ(e) with per-(link, wavelength) traversal costs w(e, λ),
// and each node owns a wavelength-conversion switch with conversion costs
// c_v(λp, λq). The residual network is represented in place by the
// availability set Λ_avail(e) ⊆ Λ(e): wavelengths currently held by live
// connections are removed from it and restored on release.
package wdm

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/bitset"
)

// Wavelength indexes a channel in the global wavelength set Λ = {λ_0 … λ_{W-1}}.
type Wavelength = int

// Link is a directed fiber link e = <From, To> with its wavelength inventory.
type Link struct {
	ID   int
	From int
	To   int

	lambda *bitset.Set // Λ(e): wavelengths installed on the link
	avail  *bitset.Set // Λ_avail(e): installed and not held by any connection
	cost   []float64   // cost[λ] = w(e, λ); +Inf for λ ∉ Λ(e)

	// n = |Λ(e)| and u = |Λ(e)| − |Λ_avail(e)|, kept in step with the two
	// sets by AddLink, Use and Release so the occupancy reads (N, U, Load)
	// cost no popcount.
	n, u int
}

// Lambda returns Λ(e) (do not mutate).
func (l *Link) Lambda() *bitset.Set { return l.lambda }

// Avail returns Λ_avail(e) (do not mutate).
func (l *Link) Avail() *bitset.Set { return l.avail }

// N returns N(e) = |Λ(e)|, the installed wavelength count.
func (l *Link) N() int { return l.n }

// U returns U(e) = |Λ(e)| − |Λ_avail(e)|, the in-use wavelength count.
func (l *Link) U() int { return l.u }

// Load returns ρ(e) = U(e)/N(e) per Eq. 2. A link with no wavelengths has
// load 1 (it can carry nothing).
func (l *Link) Load() float64 {
	if l.n == 0 {
		return 1
	}
	return float64(l.u) / float64(l.n)
}

// Cost returns w(e, λ), or +Inf if λ is not installed on the link.
func (l *Link) Cost(lambda Wavelength) float64 { return l.cost[lambda] }

// HasAvail reports whether λ is currently available on the link.
func (l *Link) HasAvail(lambda Wavelength) bool { return l.avail.Contains(lambda) }

// MeanAvailCost returns Σ_{λ ∈ Λ_avail(e)} w(e, λ) / |Λ_avail(e)|, the §3.3.1
// auxiliary-graph weight for the link's edge. It returns +Inf when no
// wavelength is available.
func (l *Link) MeanAvailCost() float64 {
	cnt := l.avail.Count()
	if cnt == 0 {
		return math.Inf(1)
	}
	sum := 0.0
	//wdmlint:ignore hotalloc non-escaping ForEach visitor; stays on the stack
	l.avail.ForEach(func(lam int) bool {
		sum += l.cost[lam]
		return true
	})
	return sum / float64(cnt)
}

// MeanInstalledCost returns Σ_{λ ∈ Λ_avail(e)} w(e, λ) / N(e), the §4.2
// G_rc link weight (the paper divides by N(e), not |Λ_avail(e)|).
func (l *Link) MeanInstalledCost() float64 {
	n := l.N()
	if n == 0 {
		return math.Inf(1)
	}
	sum := 0.0
	//wdmlint:ignore hotalloc non-escaping ForEach visitor; stays on the stack
	l.avail.ForEach(func(lam int) bool {
		sum += l.cost[lam]
		return true
	})
	return sum / float64(n)
}

// Converter models the wavelength-conversion switch at a node. Conversions
// may be disallowed; c_v(λ, λ) must be 0 for every implementation
// (the paper fixes the identity conversion as free).
type Converter interface {
	// Allowed reports whether the switch can convert from λp to λq.
	Allowed(from, to Wavelength) bool
	// Cost returns c_v(λp, λq). Meaningful only when Allowed(from, to).
	Cost(from, to Wavelength) float64
}

// Network is the WDM network G(V, E, Λ).
type Network struct {
	n     int
	w     int
	links []*Link
	out   [][]int // out[v] = link IDs with From == v (E_out(v))
	in    [][]int // in[v] = link IDs with To == v (E_in(v))
	conv  []Converter

	// Change counters for cache invalidation (see StateVersion/TopoVersion).
	stateVersion uint64
	topoVersion  uint64

	// stamp[e] is the change journal: the StateVersion at which link e's
	// availability set last changed (see LinkStamp).
	stamp []uint64

	// lineage identifies the writer whose history this network records (see
	// SameLineage).
	lineage uint64

	// rho is ρ = max_e ρ(e) over the links with N(e) > 0 (Eq. 2) and rhoN
	// the number of those links whose load equals it. Use and Release keep
	// both up to date, so NetworkLoad is a field read; only a Release that
	// takes the last link off the maximum, and AddLink, rescan the links
	// (rescanLoad).
	rho  float64
	rhoN int
}

// lineages hands out lineage identities; 0 is never issued.
var lineages atomic.Uint64

// SameLineage reports whether g and h record states of one writer's history:
// the writer and every CloneSince copy of it, or of such a copy, share one
// lineage. NewNetwork and Clone start a new lineage, because the copy may
// diverge from its source; CloneSince keeps its receiver's, because its
// result is a frozen state of the same writer, and SyncInto, which moves
// such a copy to a later state of that writer, leaves it unchanged.
//
// Within one lineage — as long as CloneSince copies change only through
// SyncInto, which the wdmlint snapmut rule enforces — StateVersion
// identifies the availability state (two networks at the same version hold
// the same availability sets), and LinkStamps are comparable across
// networks: a per-link quantity computed from one member at StateVersion v
// is still fresh on another member at version v' ≥ v for every link e with
// LinkStamp(e) ≤ v, provided TopoVersion agrees. This is what lets a
// derived cache follow a writer forward through its snapshots instead of
// starting over on each.
func (g *Network) SameLineage(h *Network) bool { return g.lineage == h.lineage }

// NewNetwork returns a network with n nodes, W wavelengths per system, and
// full wavelength conversion at unit cost at every node (the §3.3
// assumption); override per node with SetConverter.
func NewNetwork(n, w int) *Network {
	if n < 0 || w <= 0 {
		panic("wdm: invalid network dimensions")
	}
	net := &Network{
		n:       n,
		w:       w,
		out:     make([][]int, n),
		in:      make([][]int, n),
		conv:    make([]Converter, n),
		lineage: lineages.Add(1),
	}
	full := NewFullConverter(w, 1)
	for v := range net.conv {
		net.conv[v] = full
	}
	return net
}

// Nodes returns |V|.
func (g *Network) Nodes() int { return g.n }

// W returns the number of wavelengths |Λ|.
func (g *Network) W() int { return g.w }

// Links returns |E|.
func (g *Network) Links() int { return len(g.links) }

// Link returns the link with the given ID.
func (g *Network) Link(id int) *Link { return g.links[id] }

// Out returns E_out(v), the IDs of links leaving v.
func (g *Network) Out(v int) []int { return g.out[v] }

// In returns E_in(v), the IDs of links entering v.
func (g *Network) In(v int) []int { return g.in[v] }

// Converter returns the conversion switch at node v.
func (g *Network) Converter(v int) Converter { return g.conv[v] }

// SetConverter installs a conversion switch at node v.
func (g *Network) SetConverter(v int, c Converter) {
	g.conv[v] = c
	g.bumpTopo()
}

// SetAllConverters installs the same switch at every node.
func (g *Network) SetAllConverters(c Converter) {
	for v := range g.conv {
		g.conv[v] = c
	}
	g.bumpTopo()
}

// StateVersion is a counter that advances on every change to the residual
// state — wavelength reservations and releases as well as structural changes.
// Derived structures (auxiliary-graph weights, caches of availability-based
// quantities) are valid exactly while the version they were computed at still
// matches.
func (g *Network) StateVersion() uint64 { return g.stateVersion }

// TopoVersion advances on structural changes only — links added or converters
// replaced — the events that invalidate the auxiliary-graph skeleton (vertex
// and edge inventory), as opposed to reservations, which invalidate only
// weights.
func (g *Network) TopoVersion() uint64 { return g.topoVersion }

// bumpTopo records a structural change (which is also a state change).
func (g *Network) bumpTopo() {
	g.topoVersion++
	g.stateVersion++
}

// bumpState records a residual-state change (reservation or release). Every
// mutating method must call bumpState or bumpTopo — the wdmlint versionbump
// rule enforces it — or derived caches serve stale data.
func (g *Network) bumpState() {
	g.stateVersion++
}

// touchLink records an availability change on one link: it advances
// StateVersion and stamps the link's journal entry with the new version.
// Every mutation of a link's avail set must go through touchLink — the
// wdmlint versionbump rule enforces it — or incremental consumers of the
// journal (auxgraph's dirty-link reweight) serve stale weights.
func (g *Network) touchLink(id int) {
	g.bumpState()
	g.stamp[id] = g.stateVersion
}

// LinkStamp returns the StateVersion at which link id's availability set last
// changed. The journal contract: a per-link quantity computed from
// availability at StateVersion v is still fresh for link e iff
// LinkStamp(e) ≤ v — provided TopoVersion has not moved, since structural
// changes (new links, converter swaps) invalidate derived
// structures wholesale without stamping individual links.
func (g *Network) LinkStamp(id int) uint64 { return g.stamp[id] }

// AddLink adds a directed link from → to carrying the given wavelengths at
// the given per-wavelength costs and returns its ID. costs[i] is the cost of
// wavelengths[i]; every cost must be non-negative and finite.
func (g *Network) AddLink(from, to int, wavelengths []Wavelength, costs []float64) int {
	if from < 0 || from >= g.n || to < 0 || to >= g.n {
		panic(fmt.Sprintf("wdm: link (%d,%d) out of range [0,%d)", from, to, g.n))
	}
	if len(wavelengths) != len(costs) {
		panic("wdm: wavelengths/costs length mismatch")
	}
	l := &Link{
		ID:     len(g.links),
		From:   from,
		To:     to,
		lambda: bitset.New(g.w),
		avail:  bitset.New(g.w),
		cost:   make([]float64, g.w),
	}
	for i := range l.cost {
		l.cost[i] = math.Inf(1)
	}
	for i, lam := range wavelengths {
		if lam < 0 || lam >= g.w {
			panic(fmt.Sprintf("wdm: wavelength %d out of range [0,%d)", lam, g.w))
		}
		if costs[i] < 0 || math.IsInf(costs[i], 0) || math.IsNaN(costs[i]) {
			panic(fmt.Sprintf("wdm: invalid cost %g for λ%d", costs[i], lam))
		}
		l.lambda.Add(lam)
		l.avail.Add(lam)
		l.cost[lam] = costs[i]
	}
	l.n = l.lambda.Count()
	g.links = append(g.links, l)
	g.out[from] = append(g.out[from], l.ID)
	g.in[to] = append(g.in[to], l.ID)
	g.bumpTopo()
	g.stamp = append(g.stamp, g.stateVersion)
	g.rescanLoad()
	return l.ID
}

// AddUniformLink adds a link carrying all W wavelengths at one uniform cost
// (assumption (ii) of §3.3) and returns its ID.
func (g *Network) AddUniformLink(from, to int, cost float64) int {
	lams := make([]Wavelength, g.w)
	costs := make([]float64, g.w)
	for i := range lams {
		lams[i] = i
		costs[i] = cost
	}
	return g.AddLink(from, to, lams, costs)
}

// AddUniformPair adds links in both directions with the same uniform cost
// and returns both IDs.
func (g *Network) AddUniformPair(a, b int, cost float64) (ab, ba int) {
	return g.AddUniformLink(a, b, cost), g.AddUniformLink(b, a, cost)
}

// ConvCost returns c_v(λp, λq), or +Inf when the conversion is not allowed.
func (g *Network) ConvCost(v int, from, to Wavelength) float64 {
	if from == to {
		return 0
	}
	c := g.conv[v]
	if !c.Allowed(from, to) {
		return math.Inf(1)
	}
	return c.Cost(from, to)
}

// Use marks λ on link id as held by a connection. It returns an error if the
// wavelength is not currently available.
func (g *Network) Use(id int, lambda Wavelength) error {
	l := g.links[id]
	if lambda < 0 || lambda >= g.w {
		//wdmlint:ignore hotalloc error return path; never taken on the admit path
		return fmt.Errorf("wdm: λ%d out of range [0,%d)", lambda, g.w)
	}
	if !l.lambda.Contains(lambda) {
		//wdmlint:ignore hotalloc error return path; never taken on the admit path
		return fmt.Errorf("wdm: λ%d not installed on link %d", lambda, id)
	}
	if !l.avail.Contains(lambda) {
		//wdmlint:ignore hotalloc error return path; never taken on the admit path
		return fmt.Errorf("wdm: λ%d already in use on link %d", lambda, id)
	}
	l.avail.Remove(lambda)
	l.u++
	if r := l.Load(); r > g.rho {
		g.rho, g.rhoN = r, 1
	} else if r == g.rho {
		g.rhoN++
	}
	g.touchLink(id)
	return nil
}

// Release returns λ on link id to the available pool. It returns an error if
// the wavelength was not in use.
func (g *Network) Release(id int, lambda Wavelength) error {
	l := g.links[id]
	if lambda < 0 || lambda >= g.w {
		//wdmlint:ignore hotalloc error return path; never taken on the admit path
		return fmt.Errorf("wdm: λ%d out of range [0,%d)", lambda, g.w)
	}
	if !l.lambda.Contains(lambda) {
		//wdmlint:ignore hotalloc error return path; never taken on the admit path
		return fmt.Errorf("wdm: λ%d not installed on link %d", lambda, id)
	}
	if l.avail.Contains(lambda) {
		//wdmlint:ignore hotalloc error return path; never taken on the admit path
		return fmt.Errorf("wdm: λ%d not in use on link %d", lambda, id)
	}
	atRho := l.Load() == g.rho
	l.avail.Add(lambda)
	l.u--
	if atRho {
		if g.rhoN--; g.rhoN == 0 {
			g.rescanLoad()
		}
	}
	g.touchLink(id)
	return nil
}

// NetworkLoad returns ρ = max_e ρ(e) over links that carry wavelengths
// (Eq. 2). An empty network has load 0. It reads the value Use and Release
// keep up to date and writes nothing, so it is safe on a shared snapshot.
func (g *Network) NetworkLoad() float64 { return g.rho }

// rescanLoad recomputes rho and rhoN from every link's load: the maximum
// over the same float values Use and Release compare, so the maintained
// value equals a fresh scan bit for bit.
func (g *Network) rescanLoad() {
	g.rho, g.rhoN = 0, 0
	for _, l := range g.links {
		if l.n == 0 {
			continue
		}
		switch r := l.Load(); {
		case r > g.rho:
			g.rho, g.rhoN = r, 1
		case r == g.rho:
			g.rhoN++
		}
	}
}

// MaxDegree returns max_v (|E_in(v)| + |E_out(v)|), the d of the paper's
// complexity bounds.
func (g *Network) MaxDegree() int {
	d := 0
	for v := 0; v < g.n; v++ {
		if t := len(g.in[v]) + len(g.out[v]); t > d {
			d = t
		}
	}
	return d
}

// Clone returns a deep copy of the network, including availability state,
// that starts a new lineage (see SameLineage): the copy may be mutated
// independently of g. Converters are shared (they are immutable).
func (g *Network) Clone() *Network {
	c := &Network{
		n:            g.n,
		w:            g.w,
		out:          make([][]int, g.n),
		in:           make([][]int, g.n),
		conv:         append([]Converter(nil), g.conv...),
		stateVersion: g.stateVersion,
		topoVersion:  g.topoVersion,
		stamp:        append([]uint64(nil), g.stamp...),
		lineage:      lineages.Add(1),
		rho:          g.rho,
		rhoN:         g.rhoN,
	}
	for v := 0; v < g.n; v++ {
		c.out[v] = append([]int(nil), g.out[v]...)
		c.in[v] = append([]int(nil), g.in[v]...)
	}
	c.links = make([]*Link, len(g.links))
	for i, l := range g.links {
		c.links[i] = &Link{
			ID:     l.ID,
			From:   l.From,
			To:     l.To,
			lambda: l.lambda.Clone(),
			avail:  l.avail.Clone(),
			cost:   append([]float64(nil), l.cost...),
			n:      l.n,
			u:      l.u,
		}
	}
	return c
}

// TotalAvailable returns the total count of available (link, wavelength)
// pairs — a capacity gauge used by the simulator's statistics.
func (g *Network) TotalAvailable() int {
	t := 0
	for _, l := range g.links {
		t += l.avail.Count()
	}
	return t
}
