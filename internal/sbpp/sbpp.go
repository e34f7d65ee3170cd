// Package sbpp implements shared-backup path protection on top of the
// paper's model — the standard capacity optimisation the robust-routing
// literature developed next. The paper's activate approach (§1) dedicates a
// wavelength channel to every backup hop; under the single-link-failure
// assumption, two backups never activate simultaneously if their primaries
// share no link, so their backup channels may be shared. This package
// tracks per-channel sharing sets, routes backups to prefer shareable
// channels (zero incremental capacity), and activates backups on failure.
//
// Sharing rule: a backup channel (link, λ) may protect several connections
// iff the union of their primary links is pairwise disjoint — then any
// single link failure triggers at most one of them.
package sbpp

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/lightpath"
	"repro/internal/wdm"
)

// chanKey identifies a wavelength channel.
type chanKey struct {
	link int
	lam  wdm.Wavelength
}

// Connection is a protected connection managed by the Manager.
type Connection struct {
	ID      int
	Src     int
	Dst     int
	Primary *wdm.Semilightpath
	Backup  *wdm.Semilightpath
	// Activated reports whether the backup has been switched in after a
	// failure (the connection is then unprotected).
	Activated bool
}

// Manager owns a network and the backup-sharing bookkeeping. All primary
// channels are exclusively reserved in the underlying network; backup
// channels are reserved once and shared across compatible connections.
type Manager struct {
	net    *wdm.Network
	conns  map[int]*Connection
	shares map[chanKey]map[int]bool // channel -> connection IDs sharing it
	nextID int
	ws     graph.Workspace // the backup search's Dijkstra state
}

// NewManager wraps a network (taken over; callers should pass a clone if
// they need the original).
func NewManager(net *wdm.Network) *Manager {
	return &Manager{
		net:    net,
		conns:  map[int]*Connection{},
		shares: map[chanKey]map[int]bool{},
	}
}

// Net returns the managed network (for inspection).
func (m *Manager) Net() *wdm.Network { return m.net }

// Connections returns the number of live connections.
func (m *Manager) Connections() int { return len(m.conns) }

// SharedChannels returns how many backup channels currently protect more
// than one connection.
func (m *Manager) SharedChannels() int {
	n := 0
	for _, set := range m.shares {
		if len(set) > 1 {
			n++
		}
	}
	return n
}

// BackupChannels returns the total number of wavelength channels reserved
// for backups (each shared channel counted once).
func (m *Manager) BackupChannels() int { return len(m.shares) }

// primaryLinks returns the set of primary links of connection id.
func (m *Manager) primaryLinks(id int) map[int]bool {
	set := map[int]bool{}
	c := m.conns[id]
	if c == nil || c.Primary == nil {
		return set
	}
	for _, h := range c.Primary.Hops {
		set[h.Link] = true
	}
	return set
}

// shareable reports whether the channel can additionally protect a
// connection whose primary uses the given links.
func (m *Manager) shareable(key chanKey, newPrimary map[int]bool) bool {
	set, exists := m.shares[key]
	if !exists {
		return false
	}
	for id := range set {
		for l := range m.primaryLinks(id) {
			if newPrimary[l] {
				return false
			}
		}
	}
	return true
}

// Establish routes and reserves a protected connection: an optimal primary
// semilightpath plus an edge-disjoint backup that minimises *incremental*
// backup capacity — shareable backup channels cost nothing, fresh channels
// cost their Eq. 1 weight. ok is false when no protected pair fits.
func (m *Manager) Establish(s, t int) (*Connection, bool) {
	primary, _, ok := lightpath.Optimal(m.net, s, t, nil)
	if !ok {
		return nil, false
	}
	pLinks := map[int]bool{}
	for _, h := range primary.Hops {
		pLinks[h.Link] = true
	}

	// Build the incremental-cost graph over physical links ∉ primary. Each
	// link's weight is the cheapest option: a shareable backup channel
	// (cost ~0) or the cheapest free wavelength. Aux carries the chosen
	// wavelength.
	g := graph.New(m.net.Nodes())
	const shareEps = 1e-6
	for id := 0; id < m.net.Links(); id++ {
		if pLinks[id] {
			continue
		}
		l := m.net.Link(id)
		bestCost := math.Inf(1)
		bestLam := -1
		// Shareable existing backup channels.
		l.Lambda().ForEach(func(lam int) bool {
			key := chanKey{link: id, lam: lam}
			if m.shareable(key, pLinks) {
				if shareEps < bestCost {
					bestCost = shareEps
					bestLam = lam
				}
				return false // one shareable channel is enough
			}
			return true
		})
		// Cheapest free wavelength.
		l.Avail().ForEach(func(lam int) bool {
			if c := l.Cost(lam); c < bestCost {
				bestCost = c
				bestLam = lam
			}
			return true
		})
		if bestLam >= 0 {
			g.AddEdgeAux(l.From, l.To, bestCost, bestLam)
		}
	}
	g.DijkstraInto(&m.ws, s)
	bPath, ok := m.ws.AppendPathTo(nil, t, g)
	if !ok {
		return nil, false
	}

	// Reserve the primary exclusively.
	if err := m.net.Reserve(primary); err != nil {
		return nil, false
	}
	// Claim backup channels: fresh channels are reserved in the network;
	// shared channels just gain a member.
	var hops []wdm.Hop
	var fresh []wdm.Hop
	claimFailed := false
	for _, eid := range bPath {
		e := g.Edge(eid)
		// Recover the physical link: the aux graph has one edge per link,
		// identified by endpoints + wavelength. Store link id via lookup.
		linkID := m.linkBetween(e.From, e.To, e.Aux, pLinks)
		if linkID < 0 {
			claimFailed = true
			break
		}
		key := chanKey{link: linkID, lam: e.Aux}
		if _, exists := m.shares[key]; !exists {
			if err := m.net.Use(linkID, e.Aux); err != nil {
				claimFailed = true
				break
			}
			m.shares[key] = map[int]bool{}
			fresh = append(fresh, wdm.Hop{Link: linkID, Wavelength: e.Aux})
		}
		hops = append(hops, wdm.Hop{Link: linkID, Wavelength: e.Aux})
	}
	if claimFailed {
		for _, h := range fresh {
			key := chanKey{link: h.Link, lam: h.Wavelength}
			delete(m.shares, key)
			if err := m.net.Release(h.Link, h.Wavelength); err != nil {
				panic("sbpp: rollback failed: " + err.Error())
			}
		}
		if err := m.net.ReleasePath(primary); err != nil {
			panic("sbpp: rollback failed: " + err.Error())
		}
		return nil, false
	}

	c := &Connection{
		ID:      m.nextID,
		Src:     s,
		Dst:     t,
		Primary: primary,
		Backup:  &wdm.Semilightpath{Hops: hops},
	}
	m.nextID++
	m.conns[c.ID] = c
	for _, h := range hops {
		m.shares[chanKey{link: h.Link, lam: h.Wavelength}][c.ID] = true
	}
	return c, true
}

// linkBetween finds the physical link from u to v carrying λ that the
// incremental graph selected (skipping primary links).
func (m *Manager) linkBetween(u, v int, lam wdm.Wavelength, exclude map[int]bool) int {
	for _, id := range m.net.Out(u) {
		if exclude[id] {
			continue
		}
		l := m.net.Link(id)
		if l.To != v || !l.Lambda().Contains(lam) {
			continue
		}
		// Must be either a channel shareable with this primary or free.
		key := chanKey{link: id, lam: lam}
		if _, shared := m.shares[key]; shared {
			if m.shareable(key, exclude) {
				return id
			}
			continue
		}
		if l.HasAvail(lam) {
			return id
		}
	}
	return -1
}

// Teardown releases a connection: primary channels are freed; backup
// channels lose a member and are freed once unshared.
func (m *Manager) Teardown(id int) error {
	c, ok := m.conns[id]
	if !ok {
		return fmt.Errorf("sbpp: unknown connection %d", id)
	}
	delete(m.conns, id)
	if err := m.net.ReleasePath(c.Primary); err != nil {
		return err
	}
	return m.leaveBackup(id, c)
}

// leaveBackup takes connection id out of its backup channels' sharing sets,
// releasing every channel it was the last member of. An activated
// connection has no backup: its former backup is its working path.
func (m *Manager) leaveBackup(id int, c *Connection) error {
	if c.Backup == nil || c.Activated {
		return nil
	}
	for _, h := range c.Backup.Hops {
		key := chanKey{link: h.Link, lam: h.Wavelength}
		set := m.shares[key]
		if set == nil {
			continue
		}
		delete(set, id)
		if len(set) == 0 {
			delete(m.shares, key)
			if err := m.net.Release(h.Link, h.Wavelength); err != nil {
				return err
			}
		}
	}
	return nil
}

// FailLink activates the backup of every connection whose primary crosses
// the failed link. It returns the recovered and lost connection counts; a
// connection already running on its activated backup has no protection
// left and is lost. Connections sharing channels with an activated backup
// lose their protection (their backup is detached) but keep running.
func (m *Manager) FailLink(link int) (recovered, lost, unprotected int) {
	var affected []int
	for id, c := range m.conns {
		for _, h := range c.Primary.Hops {
			if h.Link == link {
				affected = append(affected, id)
				break
			}
		}
	}
	slices.Sort(affected) // deterministic order
	for _, id := range affected {
		c := m.conns[id]
		// The sharing rule guarantees no two affected connections contend
		// for the same channel under a single failure; verify defensively.
		ok := c.Backup != nil
		for i := 0; ok && i < len(c.Backup.Hops); i++ {
			h := c.Backup.Hops[i]
			ok = m.shares[chanKey{link: h.Link, lam: h.Wavelength}][id]
		}
		if !ok {
			// Lost (an activated connection's channels left the sharing
			// table): release the failed primary and whatever backup
			// memberships the connection still holds.
			lost++
			delete(m.conns, id)
			if err := m.net.ReleasePath(c.Primary); err != nil {
				panic("sbpp: primary release failed: " + err.Error())
			}
			if err := m.leaveBackup(id, c); err != nil {
				panic("sbpp: backup release failed: " + err.Error())
			}
			continue
		}
		// Activate: the backup becomes the (unprotected) working path; all
		// other members of its channels lose their backup, and the channels
		// leave the sharing table, as working channels are never shared.
		for _, h := range c.Backup.Hops {
			key := chanKey{link: h.Link, lam: h.Wavelength}
			for other := range m.shares[key] {
				if other == id {
					continue
				}
				m.detachBackup(other)
				unprotected++
			}
			delete(m.shares, key)
		}
		// Release the failed primary; the backup is the new working path.
		if err := m.net.ReleasePath(c.Primary); err != nil {
			panic("sbpp: primary release failed: " + err.Error())
		}
		c.Primary = c.Backup
		c.Activated = true
		recovered++
	}
	return recovered, lost, unprotected
}

// detachBackup removes a connection's backup (after a sharing partner
// activated), freeing its unshared channels.
func (m *Manager) detachBackup(id int) {
	c := m.conns[id]
	if c == nil {
		return
	}
	if err := m.leaveBackup(id, c); err != nil {
		panic("sbpp: detach release failed: " + err.Error())
	}
	c.Backup = nil
}

// CapacityReport summarises channel usage.
type CapacityReport struct {
	PrimaryChannels int
	BackupChannels  int // distinct reserved backup channels
	BackupDemand    int // backup hop count if every backup were dedicated
	SharedChannels  int
}

// Savings returns the fraction of backup capacity saved by sharing.
func (r CapacityReport) Savings() float64 {
	if r.BackupDemand == 0 {
		return 0
	}
	return 1 - float64(r.BackupChannels)/float64(r.BackupDemand)
}

// Report computes current capacity usage.
func (m *Manager) Report() CapacityReport {
	var r CapacityReport
	for _, c := range m.conns {
		r.PrimaryChannels += c.Primary.Len()
		if c.Backup != nil && !c.Activated {
			r.BackupDemand += c.Backup.Len()
		}
	}
	r.BackupChannels = len(m.shares)
	r.SharedChannels = m.SharedChannels()
	return r
}
