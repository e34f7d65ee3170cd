package conns

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/topo"
	"repro/internal/wdm"
)

// ring4 is a 4-node bidirectional ring: 0→2 runs over links 0,2 and,
// edge-disjointly, over links 7,5.
func ring4(w int) *Table[int] {
	return New[int](topo.Ring(4, topo.Config{W: w}))
}

// pair02 is the 0→2 pair on wavelength lam.
func pair02(lam int) Pair {
	return Pair{
		Primary: []wdm.Hop{{Link: 0, Wavelength: lam}, {Link: 2, Wavelength: lam}},
		Backup:  []wdm.Hop{{Link: 7, Wavelength: lam}, {Link: 5, Wavelength: lam}},
	}
}

func mustAudit(t *testing.T, tab *Table[int]) {
	t.Helper()
	if err := tab.Audit(); err != nil {
		t.Fatalf("audit: %v", err)
	}
}

func TestAdmitTeardown(t *testing.T) {
	tab := ring4(2)
	total := tab.Network().TotalAvailable()
	c, err := tab.Admit(1, 0, 2, pair02(0))
	if err != nil || c.ID != 1 || tab.Len() != 1 {
		t.Fatalf("admit: %v, %+v", err, c)
	}
	c.Meta = 7
	mustAudit(t, tab)
	if _, err := tab.Admit(1, 0, 2, pair02(1)); err != ErrDuplicate {
		t.Fatalf("duplicate ID: %v, want ErrDuplicate", err)
	}
	// A pair whose backup collides rolls its primary back.
	clash := pair02(1)
	clash.Backup = pair02(0).Backup
	if _, err := tab.Admit(2, 0, 2, clash); err != ErrConflict {
		t.Fatalf("colliding backup: %v, want ErrConflict", err)
	}
	if got := tab.Network().TotalAvailable(); got != total-4 {
		t.Fatalf("%d channels available after a refused admission, want %d", got, total-4)
	}
	mustAudit(t, tab)
	if s, d, ok := tab.Endpoints(1); !ok || s != 0 || d != 2 {
		t.Fatalf("endpoints = %d, %d, %v", s, d, ok)
	}
	gone, err := tab.Teardown(1)
	if err != nil || gone.Meta != 7 || len(gone.Primary) != 2 {
		t.Fatalf("teardown: %v, %+v", err, gone)
	}
	if _, err := tab.Teardown(1); err != ErrUnknown {
		t.Fatalf("second teardown: %v, want ErrUnknown", err)
	}
	if tab.Network().TotalAvailable() != total || tab.Len() != 0 {
		t.Fatal("teardown did not free the pair")
	}
	// The recycled record starts clean.
	c, _ = tab.Admit(3, 0, 2, pair02(1))
	if c.Meta != 0 || c.ID != 3 {
		t.Fatalf("recycled record not reset: %+v", c)
	}
	mustAudit(t, tab)
}

func TestRerouteRestoresOldPair(t *testing.T) {
	tab := ring4(3)
	tab.Admit(1, 0, 2, pair02(0))
	tab.Admit(2, 0, 2, pair02(2))
	old := pair02(0)
	same := func() {
		t.Helper()
		c, _ := tab.Get(1)
		for i, h := range old.Primary {
			if c.Primary[i] != h || c.Backup[i] != old.Backup[i] {
				t.Fatalf("conn 1 moved off its old pair: %+v", c.Pair)
			}
		}
		mustAudit(t, tab)
	}
	// No route: the step saw the old channels free, then nothing changed.
	_, err := tab.Reroute(1, Pair{}, func(c *Conn[int]) (Pair, bool) {
		if !tab.Network().Link(0).HasAvail(0) {
			t.Fatal("step ran before the old pair was released")
		}
		return Pair{}, false
	})
	if err != ErrNoRoute {
		t.Fatalf("no-route reroute: %v", err)
	}
	same()
	// A replacement onto conn 2's channels conflicts.
	if _, err := tab.Reroute(1, pair02(2), nil); err != ErrConflict {
		t.Fatalf("conflicting reroute: %v", err)
	}
	same()
	if _, err := tab.Reroute(9, pair02(1), nil); err != ErrUnknown {
		t.Fatalf("reroute of unknown conn: %v", err)
	}
	c, err := tab.Reroute(1, pair02(1), nil)
	if err != nil || c.Primary[0].Wavelength != 1 {
		t.Fatalf("reroute: %v, %+v", err, c)
	}
	if !tab.Network().Link(0).HasAvail(0) {
		t.Fatal("old channel still held after a reroute")
	}
	mustAudit(t, tab)
}

func TestFailSwitchoverRepair(t *testing.T) {
	tab := ring4(2)
	net := tab.Network()
	total := net.TotalAvailable()
	tab.Admit(1, 0, 2, pair02(0))
	tab.Admit(2, 0, 2, Pair{Primary: pair02(1).Backup}) // unprotected, off link 0
	affected := tab.Fail(0)
	if len(affected) != 1 || affected[0] != 1 {
		t.Fatalf("Fail(0) affected %v, want [1]", affected)
	}
	if tab.Fail(0) != nil {
		t.Fatal("failing a down link again reported connections")
	}
	if !net.Link(0).Avail().Empty() {
		t.Fatal("free channel on a down link not quarantined")
	}
	mustAudit(t, tab)
	if err := tab.Switchover(2); err != ErrUnprotected {
		t.Fatalf("switchover without backup: %v", err)
	}
	if err := tab.Switchover(1); err != nil {
		t.Fatal(err)
	}
	// The old primary's channel on the down link went to the quarantine.
	if c, _ := tab.Get(1); len(c.Backup) != 0 || c.Primary[0].Link != 7 {
		t.Fatalf("after switchover: %+v", c.Pair)
	}
	mustAudit(t, tab)
	if err := tab.Reprotect(1, []wdm.Hop{{Link: 0, Wavelength: 1}, {Link: 2, Wavelength: 1}}); err != ErrConflict {
		t.Fatalf("re-protecting over a down link: %v", err)
	}
	tab.Repair(0)
	if !net.Link(0).HasAvail(0) || !net.Link(0).HasAvail(1) {
		t.Fatal("repair did not return the quarantined channels")
	}
	mustAudit(t, tab)
	if err := tab.Reprotect(1, pair02(0).Primary); err != nil {
		t.Fatal(err)
	}
	if err := tab.Reprotect(1, pair02(1).Primary); err != ErrProtected {
		t.Fatalf("re-protecting a protected conn: %v", err)
	}
	mustAudit(t, tab)
	// A backup that crosses a down link cannot take over.
	tab.Fail(2)
	if err := tab.Switchover(1); err != ErrUnprotected {
		t.Fatalf("switchover onto a down backup: %v", err)
	}
	if err := tab.DropBackup(1); err != nil {
		t.Fatal(err)
	}
	mustAudit(t, tab)
	tab.Teardown(1)
	tab.Teardown(2)
	tab.Repair(2)
	if net.TotalAvailable() != total {
		t.Fatalf("%d of %d channels available after repair and teardown", net.TotalAvailable(), total)
	}
	mustAudit(t, tab)
}

// TestRerouteAcrossDownLink: a reroute whose old pair crosses a down link
// must hand that channel back from the quarantine when it restores.
func TestRerouteAcrossDownLink(t *testing.T) {
	tab := ring4(2)
	tab.Admit(1, 0, 2, pair02(0))
	tab.Fail(0)
	if _, err := tab.Reroute(1, Pair{}, func(*Conn[int]) (Pair, bool) { return Pair{}, false }); err != ErrNoRoute {
		t.Fatal(err)
	}
	mustAudit(t, tab)
	if _, err := tab.Teardown(1); err != nil {
		t.Fatal(err)
	}
	mustAudit(t, tab)
}

func TestAuditReportsDoubleBooking(t *testing.T) {
	tab := ring4(2)
	tab.Admit(1, 0, 2, pair02(0))
	// A second record on the same channels, injected past the reservation.
	tab.live[2] = &Conn[int]{ID: 2, Src: 0, Dst: 2, Pair: pair02(0)}
	err := tab.Audit()
	if err == nil || !strings.Contains(err.Error(), "double-booked") {
		t.Fatalf("audit = %v, want a double-booking", err)
	}
}

func TestAuditReportsLeakedQuarantine(t *testing.T) {
	tab := ring4(2)
	tab.Fail(3)
	mustAudit(t, tab)
	// Forget one quarantined channel: it stays busy with no owner.
	tab.quarantine.Remove(tab.ch(3, 0))
	err := tab.Audit()
	if err == nil || !strings.Contains(err.Error(), "owned by no live connection or quarantine") {
		t.Fatalf("audit = %v, want a leaked channel", err)
	}
	// Bring the link up without releasing its quarantine.
	tab.quarantine.Add(tab.ch(3, 0))
	tab.down[3] = false
	err = tab.Audit()
	if err == nil || !strings.Contains(err.Error(), "quarantined on an up link") {
		t.Fatalf("audit = %v, want a quarantine on an up link", err)
	}
}

// TestConcurrentReaders runs Endpoints, Len and IDs from other goroutines
// while the writer admits, reroutes and tears down (run it under -race).
func TestConcurrentReaders(t *testing.T) {
	tab := ring4(4)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if s, d, ok := tab.Endpoints(1); ok && (s != 0 || d != 2) {
					t.Errorf("endpoints %d→%d", s, d)
					return
				}
				if n, ids := tab.Len(), tab.IDs(nil); n > 2 || len(ids) > 2 {
					t.Errorf("%d live, ids %v", n, ids)
					return
				}
			}
		}()
	}
	for i := 0; i < 2000; i++ {
		lam := i % 4
		if _, err := tab.Admit(1, 0, 2, pair02(lam)); err != nil {
			t.Fatal(err)
		}
		if _, err := tab.Reroute(1, pair02((lam+1)%4), nil); err != nil {
			t.Fatal(err)
		}
		if _, err := tab.Teardown(1); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	mustAudit(t, tab)
}
