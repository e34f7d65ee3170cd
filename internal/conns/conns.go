// Package conns is the connection table behind every provisioning loop in
// the repository: the simulator (netsim) and the daemon's commit step
// (serve) admit, tear down, reroute, switch over and re-protect connections
// through it; the off-line tools place (provision) and move (reconfig)
// theirs through it; the differential harness (check/harness) admits and
// drains both of its routing arms through one table each and audits after
// every operation; and the public facade hands it out as
// repro.NewConnectionTable. It is the only code that reserves, releases or
// quarantines channels for live connections; serve.Replay, the independent
// serial reference that checks the daemon's journal, is the one other
// reservation path.
//
// A Table owns a *wdm.Network and the registry of live connections on it.
// It has a single writer: every mutating method must be called from one
// goroutine at a time (netsim's event loop, serve's commit lock). Endpoints,
// Len and IDs are also safe from other goroutines; everything else is the
// writer's.
//
// Each operation either applies whole or leaves the network and the
// registry as they were: an admission whose backup does not fit releases
// its primary again, and a reroute whose replacement does not fit restores
// the old pair. That all-or-nothing shape — check, use, release, or report
// blocked — is what lets the callers keep only policy (which pair to route,
// what to count) and lets Audit re-derive the whole state from first
// principles.
//
// Failures follow §1 of the paper. Fail takes a link down: its free
// channels are quarantined (held by nobody, so nothing routes over the
// link) and, from then on, every channel a connection releases on the link
// is quarantined too, until Repair returns them all.
package conns

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/bitset"
	"repro/internal/check"
	"repro/internal/wdm"
)

// Errors returned by the table's operations. They are returned unwrapped,
// so callers may compare with ==.
var (
	ErrDuplicate   = errors.New("conns: a live connection already holds the ID")
	ErrUnknown     = errors.New("conns: no live connection with the ID")
	ErrConflict    = errors.New("conns: a channel of the pair is not available")
	ErrNoRoute     = errors.New("conns: no replacement pair")
	ErrUnprotected = errors.New("conns: the connection has no usable backup")
	ErrProtected   = errors.New("conns: the connection already has a backup")
)

// Pair is a connection's primary and backup semilightpaths, as hop lists.
// Backup is empty for an unprotected connection.
type Pair struct {
	Primary, Backup []wdm.Hop
}

// Conn is one live connection. Its paths are table-owned copies; callers
// read them but never write them. Meta is the caller's own per-connection
// data (netsim keeps its trace and availability bookkeeping there); the
// table zeroes it on admission and never reads it.
type Conn[M any] struct {
	ID       int64
	Src, Dst int
	Pair
	Meta M
}

// Step computes a replacement pair for Reroute after the old pair has been
// released, so it may route over the connection's own channels.
type Step[M any] func(c *Conn[M]) (Pair, bool)

// Table is the connection table: a network plus its live connections.
type Table[M any] struct {
	net *wdm.Network

	// mu guards live against the concurrent readers (Endpoints, Len, IDs).
	// Only the writer changes live, so it reads it without the lock.
	mu   sync.RWMutex
	live map[int64]*Conn[M]
	free []*Conn[M] // recycled records: admissions allocate nothing once warm

	down       []bool      // per link: failed and not yet repaired
	quarantine *bitset.Set // channels (see ch) locked by a failure
	ids        []int64     // scratch returned by Fail and Crossing
}

// New returns an empty table that owns net: from now on only the table may
// change its channel state. Callers that must keep their network clone it
// first.
func New[M any](net *wdm.Network) *Table[M] {
	return &Table[M]{
		net:        net,
		live:       make(map[int64]*Conn[M]),
		down:       make([]bool, net.Links()),
		quarantine: bitset.New(net.Links() * net.W()),
	}
}

// Network returns the table's network, to route on and to inspect. It must
// not be mutated: channels change only through the table.
func (t *Table[M]) Network() *wdm.Network { return t.net }

// Get returns a live connection's record (writer only: later operations
// change its paths, and a torn-down record is recycled).
func (t *Table[M]) Get(id int64) (*Conn[M], bool) {
	c, ok := t.live[id]
	return c, ok
}

// Endpoints returns a live connection's (src, dst). Safe from any goroutine.
func (t *Table[M]) Endpoints(id int64) (src, dst int, ok bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	c, ok := t.live[id]
	if !ok {
		return 0, 0, false
	}
	return c.Src, c.Dst, true
}

// Len returns the number of live connections. Safe from any goroutine.
func (t *Table[M]) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.live)
}

// IDs appends the IDs of all live connections, ascending, to dst. Safe from
// any goroutine.
func (t *Table[M]) IDs(dst []int64) []int64 {
	t.mu.RLock()
	for id := range t.live {
		dst = append(dst, id)
	}
	t.mu.RUnlock()
	slices.Sort(dst)
	return dst
}

// Down reports whether link is failed and not yet repaired.
func (t *Table[M]) Down(link int) bool { return t.down[link] }

// Admit reserves p and registers it as connection id from src to dst. It
// fails with ErrDuplicate when id is live and with ErrConflict when a
// channel of p is not available; either way nothing changes.
func (t *Table[M]) Admit(id int64, src, dst int, p Pair) (*Conn[M], error) {
	if _, dup := t.live[id]; dup {
		return nil, ErrDuplicate
	}
	if err := t.reserve(p); err != nil {
		return nil, err
	}
	var c *Conn[M]
	if n := len(t.free); n > 0 {
		c = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		//wdmlint:ignore hotalloc pool-miss constructor; steady state pops the free list
		c = new(Conn[M])
	}
	var zero M
	c.ID, c.Src, c.Dst, c.Meta = id, src, dst, zero
	c.Primary = append(c.Primary[:0], p.Primary...)
	c.Backup = append(c.Backup[:0], p.Backup...)
	t.mu.Lock()
	t.live[id] = c
	t.mu.Unlock()
	return c, nil
}

// Teardown releases a connection's pair and removes it — on departure, or
// when a failure leaves it unrecoverable (a drop). The returned record
// holds the released pair and Meta until the next Admit recycles it.
func (t *Table[M]) Teardown(id int64) (*Conn[M], error) {
	c, ok := t.live[id]
	if !ok {
		return nil, ErrUnknown
	}
	t.release(c.Primary)
	t.release(c.Backup)
	t.mu.Lock()
	delete(t.live, id)
	t.mu.Unlock()
	//wdmlint:ignore hotalloc free-list growth; amortizes to zero once warm
	t.free = append(t.free, c)
	return c, nil
}

// Reroute moves a live connection onto a new pair. It releases the old
// pair, takes the replacement — from step when step is non-nil, which then
// routes with the old channels already free; otherwise next as given (a
// pair routed elsewhere, such as on a snapshot) — and reserves it. When
// step finds no pair (ErrNoRoute) or the replacement does not fit
// (ErrConflict), the old pair is restored and the connection is unchanged.
func (t *Table[M]) Reroute(id int64, next Pair, step Step[M]) (*Conn[M], error) {
	c, ok := t.live[id]
	if !ok {
		return nil, ErrUnknown
	}
	t.release(c.Primary)
	t.release(c.Backup)
	var err error
	if step != nil {
		if next, ok = step(c); !ok {
			err = ErrNoRoute
		}
	}
	if err == nil {
		err = t.reserve(next)
	}
	if err != nil {
		t.retake(c.Primary)
		t.retake(c.Backup)
		return nil, err
	}
	c.Primary = append(c.Primary[:0], next.Primary...)
	c.Backup = append(c.Backup[:0], next.Backup...)
	return c, nil
}

// Fail takes link down: every free channel on it is quarantined, and so is
// every channel a connection releases on it until Repair. It returns the
// IDs of the live connections whose primary or backup crosses the link,
// ascending, in a buffer valid until the next Fail or Crossing. Failing a
// link that is already down changes nothing and returns nil.
func (t *Table[M]) Fail(link int) []int64 {
	if t.down[link] {
		return nil
	}
	t.down[link] = true
	for _, lam := range t.net.Link(link).Avail().Slice() {
		t.use(link, lam)
		t.quarantine.Add(t.ch(link, lam))
	}
	return t.Crossing(link)
}

// Repair brings link back up and returns its quarantined channels to the
// pool.
func (t *Table[M]) Repair(link int) {
	t.down[link] = false
	for lam := 0; lam < t.net.W(); lam++ {
		if k := t.ch(link, lam); t.quarantine.Contains(k) {
			t.quarantine.Remove(k)
			if err := t.net.Release(link, lam); err != nil {
				panic("conns: repair release: " + err.Error())
			}
		}
	}
}

// Crossing returns the IDs of the live connections whose primary or backup
// crosses link, ascending, in a buffer valid until the next Fail or
// Crossing.
func (t *Table[M]) Crossing(link int) []int64 {
	ids := t.ids[:0]
	for id, c := range t.live {
		if Crosses(c.Primary, link) || Crosses(c.Backup, link) {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	t.ids = ids
	return ids
}

// Switchover promotes a connection's backup to primary and releases the old
// primary (active restoration). It fails with ErrUnprotected, changing
// nothing, when the connection has no backup or its backup crosses a down
// link.
func (t *Table[M]) Switchover(id int64) error {
	c, ok := t.live[id]
	if !ok {
		return ErrUnknown
	}
	if len(c.Backup) == 0 || t.crossesDown(c.Backup) {
		return ErrUnprotected
	}
	t.release(c.Primary)
	c.Primary, c.Backup = c.Backup, c.Primary[:0]
	return nil
}

// DropBackup releases a connection's backup; it keeps running unprotected.
func (t *Table[M]) DropBackup(id int64) error {
	c, ok := t.live[id]
	if !ok {
		return ErrUnknown
	}
	t.release(c.Backup)
	c.Backup = c.Backup[:0]
	return nil
}

// Reprotect reserves backup for an unprotected connection. It fails with
// ErrProtected when the connection has a backup and with ErrConflict when a
// channel of backup is not available; either way nothing changes.
func (t *Table[M]) Reprotect(id int64, backup []wdm.Hop) error {
	c, ok := t.live[id]
	if !ok {
		return ErrUnknown
	}
	if len(c.Backup) > 0 {
		return ErrProtected
	}
	b := wdm.Semilightpath{Hops: backup}
	if err := t.net.Reserve(&b); err != nil {
		return ErrConflict
	}
	c.Backup = append(c.Backup, backup...)
	return nil
}

// reserve takes every channel of p, primary first; on ErrConflict nothing
// is held.
func (t *Table[M]) reserve(p Pair) error {
	primary := wdm.Semilightpath{Hops: p.Primary}
	if err := t.net.Reserve(&primary); err != nil {
		return ErrConflict
	}
	backup := wdm.Semilightpath{Hops: p.Backup}
	if err := t.net.Reserve(&backup); err != nil {
		t.release(p.Primary)
		return ErrConflict
	}
	return nil
}

// release gives back the channels of hops held by a connection: to the
// pool on up links, to the quarantine on down ones. A channel that is not
// held means the table's bookkeeping is corrupt, which is unrecoverable.
func (t *Table[M]) release(hops []wdm.Hop) {
	for _, h := range hops {
		k := t.ch(h.Link, h.Wavelength)
		switch {
		case !t.down[h.Link]:
			if err := t.net.Release(h.Link, h.Wavelength); err != nil {
				panic("conns: inconsistent release: " + err.Error())
			}
		case t.quarantine.Contains(k):
			panic("conns: inconsistent release: channel already quarantined")
		default:
			t.quarantine.Add(k)
		}
	}
}

// retake undoes release within the same operation: channels on down links
// come back out of the quarantine, the others are taken from the pool,
// where nothing can have claimed them since.
func (t *Table[M]) retake(hops []wdm.Hop) {
	for _, h := range hops {
		k := t.ch(h.Link, h.Wavelength)
		switch {
		case !t.down[h.Link]:
			t.use(h.Link, h.Wavelength)
		case !t.quarantine.Contains(k):
			panic("conns: inconsistent retake: channel missing from the quarantine")
		default:
			t.quarantine.Remove(k)
		}
	}
}

// ch numbers channel (link, λ) in the quarantine set.
func (t *Table[M]) ch(link int, lam wdm.Wavelength) int { return link*t.net.W() + lam }

func (t *Table[M]) use(link int, lam wdm.Wavelength) {
	if err := t.net.Use(link, lam); err != nil {
		panic("conns: inconsistent use: " + err.Error())
	}
}

func (t *Table[M]) crossesDown(hops []wdm.Hop) bool {
	for _, h := range hops {
		if t.down[h.Link] {
			return true
		}
	}
	return false
}

// Audit re-derives the table's state from first principles and reports the
// first violation (writer only). It validates the Eq. 2 load bookkeeping;
// every live connection's reservation legality (a connected, installed,
// convertible walk between its endpoints whose every channel is busy) and
// the edge-disjointness of its primary and backup; and exact capacity
// conservation: each busy channel is held by exactly one live connection
// or quarantined on a down link, no channel by two, and no available
// channel by any.
func (t *Table[M]) Audit() error {
	net := t.net
	if err := check.LoadAccounting(net); err != nil {
		return err
	}
	type chanKey struct{ link, lambda int }
	held := make(map[chanKey]int64)
	for _, id := range t.IDs(nil) {
		c := t.live[id]
		for i, hops := range [2][]wdm.Hop{c.Primary, c.Backup} {
			leg := [2]string{"primary", "backup"}[i]
			if i == 1 && len(hops) == 0 {
				break // unprotected
			}
			p := &wdm.Semilightpath{Hops: hops}
			err := check.Path(net, p, c.Src, c.Dst)
			if err == nil {
				err = check.Reserved(net, p)
			}
			if err == nil && i == 1 {
				err = check.EdgeDisjoint(&wdm.Semilightpath{Hops: c.Primary}, p)
			}
			if err != nil {
				return fmt.Errorf("conn %d %s: %w", id, leg, err)
			}
			for _, h := range hops {
				k := chanKey{h.Link, h.Wavelength}
				if prev, dup := held[k]; dup {
					return fmt.Errorf("channel (link %d, λ%d) double-booked by conns %d and %d",
						h.Link, h.Wavelength, prev, id)
				}
				held[k] = id
			}
		}
	}
	// Conservation: every busy channel is held by exactly one connection or
	// the quarantine of a down link, and every available channel by neither.
	for id := 0; id < net.Links(); id++ {
		l := net.Link(id)
		var leak error
		l.Lambda().ForEach(func(lam int) bool {
			owner, isHeld := held[chanKey{id, lam}]
			quarantined := t.quarantine.Contains(t.ch(id, lam))
			switch {
			case quarantined && !t.down[id]:
				leak = fmt.Errorf("channel (link %d, λ%d) quarantined on an up link", id, lam)
			case quarantined && isHeld:
				leak = fmt.Errorf("channel (link %d, λ%d) quarantined but held by conn %d", id, lam, owner)
			case l.HasAvail(lam) && isHeld:
				leak = fmt.Errorf("channel (link %d, λ%d) available but held by conn %d", id, lam, owner)
			case l.HasAvail(lam) && quarantined:
				leak = fmt.Errorf("channel (link %d, λ%d) available but quarantined", id, lam)
			case !l.HasAvail(lam) && !isHeld && !quarantined:
				leak = fmt.Errorf("channel (link %d, λ%d) busy but owned by no live connection or quarantine", id, lam)
			}
			return leak == nil
		})
		if leak != nil {
			return leak
		}
	}
	return nil
}

// Crosses reports whether hops use link.
func Crosses(hops []wdm.Hop, link int) bool {
	for _, h := range hops {
		if h.Link == link {
			return true
		}
	}
	return false
}
