package serve

import (
	"sync/atomic"

	"repro/internal/wdm"
)

// snapshot is one published epoch: an immutable network plus the identifiers
// readers pin themselves to. Once stored in the atomic pointer the network
// is frozen forever — the commit step never writes through it, and the next
// epoch's CloneSince only *shares* its link records, never mutates them.
type snapshot struct {
	epoch   uint64
	version uint64 // cur.StateVersion() at publish — the CloneSince watermark
	net     *wdm.Network
}

// store pairs the authoritative mutable network (owned by the engine's
// commit lock; nothing touches cur without it) with the atomically published
// read snapshot. load is a single atomic pointer read — the whole read side of
// the epoch protocol.
type store struct {
	cur  *wdm.Network // guarded by the engine's commit lock; mutated only there
	snap atomic.Pointer[snapshot]
}

// newStore clones net (the engine owns its state privately) and publishes
// epoch 0 as a full copy of the initial state. Every snapshot, epoch 0
// included, comes from CloneSince and so shares cur's lineage: a pooled
// router's skeletons follow it from epoch to epoch instead of being rebuilt
// on each (a router serves one request at a time and loads only the latest
// snapshot, so the versions it sees never go backwards).
func newStore(net *wdm.Network) *store {
	st := &store{cur: net.Clone()}
	st.snap.Store(&snapshot{
		epoch:   0,
		version: st.cur.StateVersion(),
		net:     st.cur.CloneSince(nil, 0),
	})
	return st
}

// load returns the current epoch snapshot (lock-free).
func (st *store) load() *snapshot { return st.snap.Load() }

// publish seals the commit step's writes into the next epoch: a
// copy-on-write clone against the previous snapshot (only links stamped
// after the previous publish are copied) swapped in with one atomic store.
// Returns the new epoch. Commit lock held.
//
//wdm:coldpath one copy-on-write clone per state-changing commit (the touched links' records), counted in TestProvisionAllocs' budget
func (st *store) publish() uint64 {
	prev := st.snap.Load()
	next := &snapshot{
		epoch:   prev.epoch + 1,
		version: st.cur.StateVersion(),
		net:     st.cur.CloneSince(prev.net, prev.version),
	}
	st.snap.Store(next)
	return next.epoch
}
