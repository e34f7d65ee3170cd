package serve

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/check"
	"repro/internal/conns"
	"repro/internal/wdm"
)

// JournalEntry is one committed decision in the daemon's serialization
// order. The sequence of entries is a serial history: replaying it op by op
// on a copy of the initial network must reproduce every decision, which is
// how a failing concurrent schedule becomes a deterministic regression.
type JournalEntry struct {
	Seq      uint64   `json:"seq"`
	Epoch    uint64   `json:"epoch"`
	Op       string   `json:"op"` // provision | teardown | reroute
	ID       int64    `json:"id"`
	Src      int      `json:"src"`
	Dst      int      `json:"dst"`
	Accepted bool     `json:"accepted"`
	Reason   string   `json:"reason,omitempty"`
	Cost     float64  `json:"cost,omitempty"`
	Retries  int      `json:"retries,omitempty"`
	Primary  []HopOut `json:"primary,omitempty"`
	Backup   []HopOut `json:"backup,omitempty"`
}

// journal is the bounded commit-order log. Appends happen under the
// engine's commit lock, so the mutex serializes them against snapshot()
// readers only.
type journal struct {
	mu        sync.Mutex
	cap       int
	seq       uint64
	entries   []JournalEntry
	truncated bool
}

// record appends one committed decision (commit lock held; no-op when the
// journal is disabled). p is the pair the decision is about: the routed
// pair of a provision or reroute, the released pair of a teardown.
//
//wdm:coldpath a retained replay log, off unless Config.JournalCap is set; enabled, it allocates one entry per commit by design, and the serve alloc pins run with it off
func (j *journal) record(o *op, cr commitResult, p conns.Pair) {
	if j.cap <= 0 {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.seq++
	if len(j.entries) >= j.cap {
		j.truncated = true
		return
	}
	ent := JournalEntry{
		Seq:      j.seq,
		Epoch:    cr.epoch,
		Op:       opNames[o.kind],
		ID:       o.id,
		Src:      o.s,
		Dst:      o.d,
		Accepted: cr.ok,
		Reason:   cr.reason,
		Retries:  o.retries,
	}
	// Conflicts keep the attempted paths too: Replay asserts the losing
	// reservation really was infeasible in commit order.
	if o.kind == opTeardown || cr.ok || cr.reason == ReasonConflict {
		ent.Primary, ent.Backup, ent.Cost = hopsJSON(p.Primary), hopsJSON(p.Backup), o.cost
	}
	j.entries = append(j.entries, ent)
}

// snapshot copies the recorded entries (safe from any goroutine).
func (j *journal) snapshot() ([]JournalEntry, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]JournalEntry(nil), j.entries...), j.truncated
}

func hopsFromJSON(hs []HopOut) []wdm.Hop {
	if len(hs) == 0 {
		return nil
	}
	hops := make([]wdm.Hop, len(hs))
	for i, h := range hs {
		hops[i] = wdm.Hop{Link: h.Link, Wavelength: h.Lambda}
	}
	return hops
}

// Replay re-executes a journal serially on a fresh copy of the initial
// network and verifies that every recorded decision is reproducible in
// commit order: accepted reservations must succeed with the recorded cost
// (bit-checked against the check oracle's Eq. 1 recomputation), conflicts
// must genuinely fail to reserve, a teardown must release exactly the paths
// its connection holds, and a reroute must name the endpoints of the
// connection it applies to. It returns the final network so callers can compare it
// against the engine's last snapshot.
//
// This is the linearizability-style argument made executable: if the
// concurrent engine's observable decisions match a serial execution of its
// own commit order, the schedule was linearizable with the commit point as
// the linearization point.
func Replay(initial *wdm.Network, entries []JournalEntry) (*wdm.Network, error) {
	net := initial.Clone()
	type conn struct {
		src, dst int
		hops     [2][]wdm.Hop
	}
	live := make(map[int64]conn)
	for _, ent := range entries {
		switch ent.Op {
		case "provision":
			switch {
			case ent.Accepted:
				p := &wdm.Semilightpath{Hops: hopsFromJSON(ent.Primary)}
				b := &wdm.Semilightpath{Hops: hopsFromJSON(ent.Backup)}
				if err := net.Reserve(p); err != nil {
					return nil, fmt.Errorf("seq %d: accepted primary does not replay: %w", ent.Seq, err)
				}
				if err := net.Reserve(b); err != nil {
					return nil, fmt.Errorf("seq %d: accepted backup does not replay: %w", ent.Seq, err)
				}
				if got := check.PathCost(net, p) + check.PathCost(net, b); math.Abs(got-ent.Cost) > 1e-6*(1+math.Abs(ent.Cost)) {
					return nil, fmt.Errorf("seq %d: replayed cost %g, journal says %g", ent.Seq, got, ent.Cost)
				}
				live[ent.ID] = conn{ent.Src, ent.Dst, [2][]wdm.Hop{p.Hops, b.Hops}}
			case ent.Reason == ReasonConflict:
				if err := reserveMustFail(net, hopsFromJSON(ent.Primary), hopsFromJSON(ent.Backup)); err != nil {
					return nil, fmt.Errorf("seq %d (provision conflict): %w", ent.Seq, err)
				}
			}
		case "teardown":
			if !ent.Accepted {
				continue
			}
			p := &wdm.Semilightpath{Hops: hopsFromJSON(ent.Primary)}
			b := &wdm.Semilightpath{Hops: hopsFromJSON(ent.Backup)}
			if c := live[ent.ID]; !slices.Equal(c.hops[0], p.Hops) || !slices.Equal(c.hops[1], b.Hops) {
				return nil, fmt.Errorf("seq %d: teardown names paths connection %d does not hold", ent.Seq, ent.ID)
			}
			if err := net.ReleasePath(p); err != nil {
				return nil, fmt.Errorf("seq %d: teardown primary does not replay: %w", ent.Seq, err)
			}
			if err := net.ReleasePath(b); err != nil {
				return nil, fmt.Errorf("seq %d: teardown backup does not replay: %w", ent.Seq, err)
			}
			delete(live, ent.ID)
		case "reroute":
			old, isLive := live[ent.ID]
			if isLive && (ent.Accepted || ent.Reason == ReasonConflict) && (ent.Src != old.src || ent.Dst != old.dst) {
				return nil, fmt.Errorf("seq %d: reroute for (%d, %d) applied to connection %d from %d to %d",
					ent.Seq, ent.Src, ent.Dst, ent.ID, old.src, old.dst)
			}
			switch {
			case ent.Accepted:
				if !isLive {
					return nil, fmt.Errorf("seq %d: reroute of connection %d not live in replay", ent.Seq, ent.ID)
				}
				if err := net.ReleasePath(&wdm.Semilightpath{Hops: old.hops[0]}); err != nil {
					return nil, fmt.Errorf("seq %d: reroute release(primary): %w", ent.Seq, err)
				}
				if err := net.ReleasePath(&wdm.Semilightpath{Hops: old.hops[1]}); err != nil {
					return nil, fmt.Errorf("seq %d: reroute release(backup): %w", ent.Seq, err)
				}
				p := &wdm.Semilightpath{Hops: hopsFromJSON(ent.Primary)}
				b := &wdm.Semilightpath{Hops: hopsFromJSON(ent.Backup)}
				if err := net.Reserve(p); err != nil {
					return nil, fmt.Errorf("seq %d: rerouted primary does not replay: %w", ent.Seq, err)
				}
				if err := net.Reserve(b); err != nil {
					return nil, fmt.Errorf("seq %d: rerouted backup does not replay: %w", ent.Seq, err)
				}
				live[ent.ID] = conn{ent.Src, ent.Dst, [2][]wdm.Hop{p.Hops, b.Hops}}
			case ent.Reason == ReasonConflict && isLive:
				// In commit order the old paths were released, the new pair
				// failed to reserve, and the old paths were restored: net-zero
				// on the network, but the new pair must fail with the old
				// channels free.
				if err := net.ReleasePath(&wdm.Semilightpath{Hops: old.hops[0]}); err != nil {
					return nil, fmt.Errorf("seq %d: reroute-conflict release: %w", ent.Seq, err)
				}
				if err := net.ReleasePath(&wdm.Semilightpath{Hops: old.hops[1]}); err != nil {
					return nil, fmt.Errorf("seq %d: reroute-conflict release: %w", ent.Seq, err)
				}
				if err := reserveMustFail(net, hopsFromJSON(ent.Primary), hopsFromJSON(ent.Backup)); err != nil {
					return nil, fmt.Errorf("seq %d (reroute conflict): %w", ent.Seq, err)
				}
				if err := net.Reserve(&wdm.Semilightpath{Hops: old.hops[0]}); err != nil {
					return nil, fmt.Errorf("seq %d: reroute-conflict restore: %w", ent.Seq, err)
				}
				if err := net.Reserve(&wdm.Semilightpath{Hops: old.hops[1]}); err != nil {
					return nil, fmt.Errorf("seq %d: reroute-conflict restore: %w", ent.Seq, err)
				}
			}
		default:
			return nil, fmt.Errorf("seq %d: unknown op %q", ent.Seq, ent.Op)
		}
	}
	return net, nil
}

// reserveMustFail asserts that the pair cannot be reserved on net: the
// primary fails outright, or succeeds and the backup fails (and is then
// rolled back). A pair that reserves cleanly means the journal recorded a
// conflict that was not real — a serializability violation.
func reserveMustFail(net *wdm.Network, primary, backup []wdm.Hop) error {
	p := &wdm.Semilightpath{Hops: primary}
	if err := net.Reserve(p); err != nil {
		return nil
	}
	b := &wdm.Semilightpath{Hops: backup}
	if err := net.Reserve(b); err != nil {
		if rerr := net.ReleasePath(p); rerr != nil {
			return fmt.Errorf("rollback after expected conflict: %w", rerr)
		}
		return nil
	}
	return fmt.Errorf("journal recorded a conflict but the pair reserves cleanly in commit order")
}
