package serve

import (
	"sync"
	"testing"

	"repro/internal/conns"
	"repro/internal/obs"
	"repro/internal/wdm"
)

// linkAvail copies the availability sets of every link — the observable a
// frozen epoch must keep forever.
func linkAvail(net *wdm.Network) [][]int {
	out := make([][]int, net.Links())
	for id := range out {
		out[id] = append([]int(nil), net.Link(id).Avail().Slice()...)
	}
	return out
}

func sameAvail(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// TestEpochReadersSeeFrozenState is the snapshot-isolation property: a
// reader pinned to epoch N never observes a write that committed in epoch
// N+1 or later, no matter how much state churns after the pin.
func TestEpochReadersSeeFrozenState(t *testing.T) {
	e := startEngine(t, nsf(8), Config{})

	epoch0, pinned := e.Snapshot()
	before := linkAvail(pinned)

	var accepted []Response
	for i := 0; i < 30; i++ {
		resp := e.Provision(Request{ID: int64(i), Src: i % 14, Dst: (i + 7) % 14})
		if resp.Accepted {
			accepted = append(accepted, resp)
		}
	}
	if len(accepted) == 0 {
		t.Fatal("no admissions; the test needs post-pin writes")
	}
	epochN, current := e.Snapshot()
	if epochN <= epoch0 {
		t.Fatalf("epoch did not advance: %d -> %d", epoch0, epochN)
	}

	// The pinned network is bit-identical to its state at pin time...
	if !sameAvail(before, linkAvail(pinned)) {
		t.Fatal("epoch-pinned reader observed a later write")
	}
	// ...while the current snapshot shows every committed admission: each
	// granted channel is busy now but was free at the pin.
	for _, resp := range accepted {
		for _, h := range append(append([]HopOut(nil), resp.Primary...), resp.Backup...) {
			if !pinned.Link(h.Link).HasAvail(h.Lambda) {
				t.Fatalf("conn %d channel (link %d, λ%d) busy in the pinned epoch", resp.ID, h.Link, h.Lambda)
			}
			if current.Link(h.Link).HasAvail(h.Lambda) {
				t.Fatalf("conn %d channel (link %d, λ%d) free in epoch %d after commit", resp.ID, h.Link, h.Lambda, epochN)
			}
		}
	}
}

// TestEachCommitPublishesOneEpoch drives the commit step directly: each of
// three admissions publishes exactly one new epoch, and the snapshot of
// epoch k carries exactly the first k admissions, each whole — a reader
// pinned to an epoch never observes a later commit or part of one.
func TestEachCommitPublishesOneEpoch(t *testing.T) {
	e := New(ring4(8), Config{}) // not started: the test calls the commit step

	_, pinned := e.Snapshot()
	pins := []*wdm.Network{pinned}
	for k := 0; k < 3; k++ {
		cr := e.commit(&op{kind: opProvision, id: int64(k + 1), s: 0, d: 2, algo: AlgoMinCost,
			pair: conns.Pair{
				Primary: []wdm.Hop{{Link: 0, Wavelength: k}, {Link: 2, Wavelength: k}},
				Backup:  []wdm.Hop{{Link: 7, Wavelength: k}, {Link: 5, Wavelength: k}}}})
		if !cr.ok || cr.epoch != uint64(k+1) {
			t.Fatalf("commit %d: %+v, want ok in epoch %d", k+1, cr, k+1)
		}
		epoch, snap := e.Snapshot()
		if epoch != uint64(k+1) {
			t.Fatalf("after %d commits the engine is at epoch %d", k+1, epoch)
		}
		pins = append(pins, snap)
	}
	for epoch, snap := range pins {
		for lam := 0; lam < 3; lam++ {
			for _, link := range []int{0, 2, 7, 5} {
				if busy, want := !snap.Link(link).HasAvail(lam), lam < epoch; busy != want {
					t.Fatalf("epoch %d: channel (link %d, λ%d) busy=%v, want %v", epoch, link, lam, busy, want)
				}
			}
		}
	}
	if err := e.Audit(); err == nil {
		t.Fatal("audit on an unstarted engine should refuse")
	}
	if err := e.tab.Audit(); err != nil {
		t.Fatalf("audit after commits: %v", err)
	}
}

// TestTeardownFreesCapacityNextEpoch: released channels become available in
// the next published epoch — and only there; the pre-teardown epoch still
// shows them busy.
func TestTeardownFreesCapacityNextEpoch(t *testing.T) {
	net := nsf(8)
	want := net.TotalAvailable()
	e := startEngine(t, net, Config{})

	resp := e.Provision(Request{ID: 1, Src: 0, Dst: 9})
	if !resp.Accepted {
		t.Fatalf("provision blocked: %+v", resp)
	}
	epochHeld, held := e.Snapshot()
	for _, h := range append(append([]HopOut(nil), resp.Primary...), resp.Backup...) {
		if held.Link(h.Link).HasAvail(h.Lambda) {
			t.Fatalf("channel (link %d, λ%d) free while held", h.Link, h.Lambda)
		}
	}

	if td := e.Teardown(1); !td.Accepted {
		t.Fatalf("teardown rejected: %+v", td)
	}
	epochFree, freed := e.Snapshot()
	if epochFree <= epochHeld {
		t.Fatalf("teardown published no epoch: %d -> %d", epochHeld, epochFree)
	}
	for _, h := range append(append([]HopOut(nil), resp.Primary...), resp.Backup...) {
		if !freed.Link(h.Link).HasAvail(h.Lambda) {
			t.Fatalf("channel (link %d, λ%d) still busy after teardown epoch", h.Link, h.Lambda)
		}
		if held.Link(h.Link).HasAvail(h.Lambda) {
			t.Fatalf("teardown mutated the frozen pre-teardown epoch %d", epochHeld)
		}
	}
	if got := freed.TotalAvailable(); got != want {
		t.Fatalf("capacity after teardown: %d, want %d", got, want)
	}
}

// TestRouterSkeletonsFollowEpochs pins the skeleton reuse across epochs: every
// commit publishes a new snapshot network, and each pooled router's skeleton
// follows it forward (same lineage, versions never going backwards), so a
// churned run builds at most one skeleton per router — serving routes only the
// edge-disjoint kind — however many epochs it publishes. It counts the builds
// from the request traces ("skeleton":"build"), so the tracer's ring must hold
// the whole run.
func TestRouterSkeletonsFollowEpochs(t *testing.T) {
	tr := obs.New(obs.Config{Capacity: 4096})
	const clients, perClient = 4, 90
	e := startEngine(t, nsf(8), Config{Tracer: tr})
	algos := []string{"min-cost", "min-load", "min-load-cost"}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var live []int64
			for i := 0; i < perClient; i++ {
				id := int64(c*perClient + i + 1)
				s, d := (c*5+i)%14, (c*3+i*7+1)%14
				if s == d {
					d = (d + 1) % 14
				}
				if e.Provision(Request{ID: id, Src: s, Dst: d, Algo: algos[i%3]}).Accepted {
					live = append(live, id)
				}
				switch {
				case i%4 == 3 && len(live) > 0:
					e.Teardown(live[0])
					live = live[1:]
				case i%5 == 4 && len(live) > 0:
					e.Reroute(live[len(live)-1])
				}
			}
		}(c)
	}
	wg.Wait()

	st := e.Status()
	if st.Epoch < 100 {
		t.Fatalf("only %d epochs published; the pin needs many snapshots", st.Epoch)
	}
	fr := tr.Flight()
	if int64(fr.Len()) != fr.Total() {
		t.Fatalf("flight ring kept %d of %d traces; it must hold the whole run", fr.Len(), fr.Total())
	}
	builds, routed := 0, 0
	for _, tc := range fr.Snapshot() {
		for _, a := range tc.Attrs {
			if a.Key == "skeleton" {
				routed++
				if a.S == "build" {
					builds++
				}
			}
		}
	}
	if routed < clients*perClient {
		t.Fatalf("%d traces name a skeleton, want at least one per provision (%d)", routed, clients*perClient)
	}
	if builds > st.Routers {
		t.Fatalf("%d skeleton builds over %d epochs, want at most %d (one per router)", builds, st.Epoch, st.Routers)
	}
}
