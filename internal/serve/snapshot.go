package serve

import (
	"slices"
	"sync/atomic"

	"repro/internal/wdm"
)

// snapshot is one published epoch: a frozen network plus the epoch readers
// report. A reader takes it with store.pin and reads it until unpin; while
// it is published or pinned, nothing writes the network.
type snapshot struct {
	epoch uint64
	net   *wdm.Network

	// pins counts the readers between store.pin and unpin: publish recycles
	// a retired snapshot only at zero pins.
	pins atomic.Int32
	// kept marks a snapshot handed out by Engine.Snapshot, whose caller may
	// hold it forever: it is never recycled.
	kept atomic.Bool
}

// unpin releases a pin taken with store.pin.
func (s *snapshot) unpin() { s.pins.Add(-1) }

// slot is one pooled epoch buffer: the snapshot header readers pin, and the
// store's own handle on the network behind it. The two point at the same
// network; readers reach it through snap.net, which is frozen, and only the
// store, under the commit lock, writes it through net — and only once the
// slot is retired, unpinned and not kept.
type slot struct {
	net  *wdm.Network
	snap snapshot
}

func newSlot(net *wdm.Network) *slot {
	sl := &slot{net: net}
	sl.snap.net = net
	return sl
}

// store pairs the authoritative mutable network with the published read
// snapshot and the pool of retired ones. The commit lock guards cur, live
// and free; readers touch only snap and the pinned snapshot's counters.
type store struct {
	cur  *wdm.Network // mutated only by the commit step
	snap atomic.Pointer[snapshot]
	live *slot   // the slot whose snapshot snap points at
	free []*slot // retired slots, the next publish's candidates for reuse
}

// newStore clones net (the engine owns its state privately) and publishes
// epoch 0 as a full frozen copy of the initial state. Every snapshot, epoch
// 0 included, shares cur's lineage, and a recycled one is brought forward
// with wdm.Network.SyncInto, which keeps it: a pooled router's skeletons
// follow the snapshots from epoch to epoch instead of being rebuilt on each
// (a router routes one request at a time on the latest snapshot, so the
// versions it sees never go backwards).
func newStore(net *wdm.Network) *store {
	st := &store{cur: net.Clone()}
	st.live = newSlot(st.cur.CloneSince(nil))
	st.snap.Store(&st.live.snap)
	return st
}

// pin returns the current snapshot with a reader pin on it, lock-free: it
// loads the pointer, counts itself in, and re-loads the pointer. A mismatch
// means a publish retired the snapshot in between — and may be recycling
// it — so the pin is dropped and taken again on the new one. A match means
// the snapshot was current after the pin was counted, so no publish can
// recycle it before unpin. Pair with snapshot.unpin.
//
//wdm:hotpath
func (st *store) pin() *snapshot {
	for {
		s := st.snap.Load()
		if pinLoaded != nil {
			pinLoaded()
		}
		s.pins.Add(1)
		if st.snap.Load() == s {
			return s
		}
		s.unpin()
	}
}

// pinLoaded, when set, runs in pin between loading the snapshot pointer and
// counting the pin — the step a concurrent publish can overtake. A test sets
// it before starting readers, to stretch that window; it is nil otherwise.
var pinLoaded func()

// epoch returns the published epoch. Commit lock held.
func (st *store) epoch() uint64 { return st.live.snap.epoch }

// publish seals the commit step's writes into the next epoch and returns
// it: it brings a retired snapshot that no reader pins up to cur in place
// and swaps it in with one atomic store, then retires the snapshot it
// replaced. The published snapshot itself is never reused. A warm publish
// allocates nothing. Commit lock held.
//
//wdm:hotpath
func (st *store) publish() uint64 {
	next := st.reclaim()
	if next == nil {
		next = st.grow()
	}
	next.snap.epoch = st.live.snap.epoch + 1
	st.snap.Store(&next.snap)
	// Retire the replaced slot into the place reclaim vacated or grow made.
	st.free = st.free[:len(st.free)+1]
	st.free[len(st.free)-1] = st.live
	st.live = next
	return next.snap.epoch
}

// reclaim takes a retired slot with no pins off the free list and syncs its
// network to cur, or returns nil when every retired slot is pinned. It
// checks pins before kept: Engine.Snapshot sets kept while it holds a pin.
// Kept slots, and slots SyncInto refuses (cur's topology changed), leave
// the list for good. Commit lock held.
func (st *store) reclaim() *slot {
	for i := len(st.free) - 1; i >= 0; i-- {
		sl := st.free[i]
		if sl.snap.pins.Load() != 0 {
			continue
		}
		last := len(st.free) - 1
		st.free[i], st.free[last] = st.free[last], nil
		st.free = st.free[:last]
		if !sl.snap.kept.Load() && st.cur.SyncInto(sl.net) {
			return sl
		}
	}
	return nil
}

// grow makes a new slot holding a full frozen copy of cur, of cur's lineage,
// sharing the live snapshot's structure, and room on the free list to
// retire the live slot into. Commit lock held.
//
//wdm:coldpath a pool miss: the first publishes, or every retired snapshot still pinned
func (st *store) grow() *slot {
	st.free = slices.Grow(st.free, 1)
	return newSlot(st.cur.CloneSince(st.live.net))
}
