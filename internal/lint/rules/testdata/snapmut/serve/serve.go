// Package serve is a fixture mirroring the daemon's snapshot store: a
// published snapshot wraps a frozen network, the committer owns cur.
package serve

import "fix/snapmut/wdm"

type snapshot struct {
	version uint64
	net     *wdm.Network
}

// slot mirrors the store's pooled epoch buffer: its own handle on a network
// next to the snapshot header that publishes it.
type slot struct {
	net  *wdm.Network
	snap snapshot
}

// Engine mirrors the daemon: a private working copy, a published epoch, and
// retired slots to recycle.
type Engine struct {
	cur  *wdm.Network
	snap *snapshot
	free []*slot
}

// Snapshot returns the current epoch and its frozen network: the second
// taint source.
func (e *Engine) Snapshot() (uint64, *wdm.Network) {
	return e.snap.version, e.snap.net
}

// publish builds the next epoch from the committer's working copy: clean —
// the CloneSince result is stored, never mutated, and handing the previous
// frozen net to CloneSince only reads it.
func (e *Engine) publish() {
	e.snap = &snapshot{
		version: e.snap.version + 1,
		net:     e.cur.CloneSince(e.snap.net),
	}
}

// recycle brings a retired slot forward through the store's own handle and
// publishes it: clean — slot.net is not a snapshot source.
func (e *Engine) recycle() {
	sl := e.free[len(e.free)-1]
	e.cur.SyncInto(sl.net)
	sl.snap.version = e.snap.version + 1
	e.snap = &sl.snap
}

// recycleBad syncs the published snapshot's network in place: finding.
func (e *Engine) recycleBad() {
	e.cur.SyncInto(e.snap.net)
}

// recycleKept syncs a network Engine.Snapshot handed out: finding.
func (e *Engine) recycleKept() {
	_, net := e.Snapshot()
	e.cur.SyncInto(net)
}

// commit mutates the committer's private working copy: clean.
func (e *Engine) commit(i int) {
	e.cur.Use(i)
}

// routeBad mutates the network straight out of a snapshot: finding.
func (e *Engine) routeBad(i int) {
	e.snap.net.Use(i)
}

// apply mutates whatever network it is handed: classified a mutator of its
// first parameter by backward propagation.
func apply(n *wdm.Network, i int) {
	n.Use(i)
}

// rerouteBad feeds a snapshot network into the mutating helper: finding.
func (e *Engine) rerouteBad(i int) {
	apply(e.snap.net, i)
}

// readOnly routes on a snapshot without mutating it: clean.
func (e *Engine) readOnly() int {
	_, net := e.Snapshot()
	return net.Lambdas()
}

// snapFromEngine mutates the network returned by Engine.Snapshot: finding
// through the tuple-assignment taint.
func snapFromEngine(e *Engine) {
	_, net := e.Snapshot()
	net.Use(0)
}
