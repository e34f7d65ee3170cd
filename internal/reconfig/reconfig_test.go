package reconfig

import (
	"math/rand"
	"testing"

	"repro/internal/conns"
	"repro/internal/core"
	"repro/internal/topo"
	"repro/internal/wdm"
)

// establish admits a robust pair routed with the cost-only router (which
// piles onto hot links) as connection id.
func establish(t *testing.T, tab *conns.Table[struct{}], id, s, d int) {
	t.Helper()
	r, ok := core.NewRouter(nil).ApproxMinCost(tab.Network(), s, d)
	if !ok {
		t.Fatalf("routing (%d,%d) failed", s, d)
	}
	if _, err := tab.Admit(int64(id), s, d, conns.Pair{Primary: r.Primary.Hops, Backup: r.Backup.Hops}); err != nil {
		t.Fatal(err)
	}
}

// mustAudit fails the test when the table's state does not re-derive.
func mustAudit(t *testing.T, tab *conns.Table[struct{}]) {
	t.Helper()
	if err := tab.Audit(); err != nil {
		t.Fatalf("audit: %v", err)
	}
}

// drain tears every connection down through the table and checks that the
// network is idle and the audit clean.
func drain(t *testing.T, tab *conns.Table[struct{}]) {
	t.Helper()
	for _, id := range tab.IDs(nil) {
		if _, err := tab.Teardown(id); err != nil {
			t.Fatalf("teardown %d: %v", id, err)
		}
	}
	if rho := tab.Network().NetworkLoad(); rho != 0 {
		t.Fatalf("ρ = %g after tearing every connection down", rho)
	}
	mustAudit(t, tab)
}

// hotspot is two short corridors plus a long detour from 0 to 5, with w
// wavelengths: cost-only routing stacks everything on the short corridors.
func hotspot(w int) *conns.Table[struct{}] {
	net := wdm.NewNetwork(6, w)
	net.AddUniformLink(0, 1, 1)
	net.AddUniformLink(1, 5, 1)
	net.AddUniformLink(0, 2, 1.1)
	net.AddUniformLink(2, 5, 1.1)
	net.AddUniformLink(0, 3, 4)
	net.AddUniformLink(3, 4, 4)
	net.AddUniformLink(4, 5, 4)
	net.SetAllConverters(wdm.NewFullConverter(w, 0.5))
	return conns.New[struct{}](net)
}

func TestOptimizeReducesHotspot(t *testing.T) {
	// Reconfiguration should spread the overloaded corridors onto the
	// detour.
	tab := hotspot(4)
	for i := 0; i < 3; i++ {
		establish(t, tab, i, 0, 5)
	}
	before := tab.Network().NetworkLoad()
	res := Optimize(tab)
	if res.LoadBefore != before {
		t.Fatalf("LoadBefore = %g, want %g", res.LoadBefore, before)
	}
	if res.LoadAfter > res.LoadBefore+1e-12 {
		t.Fatalf("optimization increased load: %g → %g", res.LoadBefore, res.LoadAfter)
	}
	// Every connection is still fully reserved, and tearing them all down
	// leaves an idle network.
	mustAudit(t, tab)
	if tab.Len() != 3 {
		t.Fatalf("%d connections after optimizing, want 3", tab.Len())
	}
	drain(t, tab)
}

func TestOptimizeIdleNetworkNoop(t *testing.T) {
	tab := conns.New[struct{}](topo.NSFNET(topo.Config{W: 4}))
	res := Optimize(tab)
	if res.LoadBefore != 0 || res.LoadAfter != 0 || res.Moves != 0 {
		t.Fatalf("idle optimize did something: %+v", res)
	}
}

func TestOptimizeNeverWorsensRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 10; trial++ {
		tab := conns.New[struct{}](topo.NSFNET(topo.Config{W: 4}))
		for i := 0; i < 10; i++ {
			s := rng.Intn(14)
			d := rng.Intn(13)
			if d >= s {
				d++
			}
			r, ok := core.NewRouter(nil).ApproxMinCost(tab.Network(), s, d)
			if !ok {
				continue
			}
			if _, err := tab.Admit(int64(i), s, d, conns.Pair{Primary: r.Primary.Hops, Backup: r.Backup.Hops}); err != nil {
				t.Fatal(err)
			}
		}
		res := Optimize(tab)
		if res.LoadAfter > res.LoadBefore+1e-12 {
			t.Fatalf("trial %d: load worsened %g → %g", trial, res.LoadBefore, res.LoadAfter)
		}
		// No channels created or destroyed beyond re-routing: every
		// connection is still fully reserved, and tearing them all down
		// leaves an idle network.
		mustAudit(t, tab)
		drain(t, tab)
	}
}

func TestOptimizeCountsMoves(t *testing.T) {
	// Same hotspot network as above; with a forced improvement some
	// connection must move and be counted.
	tab := hotspot(2)
	establish(t, tab, 0, 0, 5)
	establish(t, tab, 1, 0, 5)
	res := Optimize(tab)
	if res.LoadAfter < res.LoadBefore && res.Moves == 0 {
		t.Fatal("load improved but no move counted")
	}
	if res.Rounds == 0 {
		t.Fatal("rounds not counted")
	}
}
