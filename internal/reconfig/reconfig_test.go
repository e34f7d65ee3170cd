package reconfig

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/topo"
	"repro/internal/wdm"
)

// establish places a robust pair with the cost-only router (which piles
// onto hot links) and returns the connection record.
func establish(t *testing.T, net *wdm.Network, id, s, d int) *Connection {
	t.Helper()
	r, ok := core.NewRouter(nil).ApproxMinCost(net, s, d)
	if !ok {
		t.Fatalf("routing (%d,%d) failed", s, d)
	}
	if err := core.Establish(net, r); err != nil {
		t.Fatal(err)
	}
	return &Connection{ID: id, Src: s, Dst: d, Primary: r.Primary, Backup: r.Backup}
}

func totalUsed(net *wdm.Network) int {
	u := 0
	for id := 0; id < net.Links(); id++ {
		u += net.Link(id).U()
	}
	return u
}

func TestOptimizeReducesHotspot(t *testing.T) {
	// Two short corridors plus a long detour; cost-only routing stacks
	// everything on the short corridors, overloading them. Reconfiguration
	// should spread onto the detour.
	net := wdm.NewNetwork(6, 4)
	net.AddUniformLink(0, 1, 1)
	net.AddUniformLink(1, 5, 1)
	net.AddUniformLink(0, 2, 1.1)
	net.AddUniformLink(2, 5, 1.1)
	net.AddUniformLink(0, 3, 4)
	net.AddUniformLink(3, 4, 4)
	net.AddUniformLink(4, 5, 4)
	net.SetAllConverters(wdm.NewFullConverter(4, 0.5))

	var conns []*Connection
	for i := 0; i < 3; i++ {
		conns = append(conns, establish(t, net, i, 0, 5))
	}
	before := net.NetworkLoad()
	usedBefore := totalUsed(net)
	res := Optimize(net, conns, 0, nil)
	if res.LoadBefore != before {
		t.Fatalf("LoadBefore = %g, want %g", res.LoadBefore, before)
	}
	if res.LoadAfter > res.LoadBefore+1e-12 {
		t.Fatalf("optimization increased load: %g → %g", res.LoadBefore, res.LoadAfter)
	}
	// Channel conservation: same number of channels held (pairs may differ
	// in hop count, so compare per-connection reservations instead).
	_ = usedBefore
	for _, c := range conns {
		for _, p := range []*wdm.Semilightpath{c.Primary, c.Backup} {
			for _, h := range p.Hops {
				if net.Link(h.Link).HasAvail(h.Wavelength) {
					t.Fatal("optimizer left a connection's channel unreserved")
				}
			}
		}
	}
	// Everything still releasable.
	for _, c := range conns {
		release(net, c.Primary, c.Backup)
	}
	if net.NetworkLoad() != 0 {
		t.Fatal("channels leaked")
	}
}

func TestOptimizeIdleNetworkNoop(t *testing.T) {
	net := topo.NSFNET(topo.Config{W: 4})
	res := Optimize(net, nil, 0, nil)
	if res.LoadBefore != 0 || res.LoadAfter != 0 || res.Moves != 0 {
		t.Fatalf("idle optimize did something: %+v", res)
	}
}

func TestOptimizeNeverWorsensRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 10; trial++ {
		net := topo.NSFNET(topo.Config{W: 4})
		var conns []*Connection
		for i := 0; i < 10; i++ {
			s := rng.Intn(14)
			d := rng.Intn(13)
			if d >= s {
				d++
			}
			r, ok := core.NewRouter(nil).ApproxMinCost(net, s, d)
			if !ok || core.Establish(net, r) != nil {
				continue
			}
			conns = append(conns, &Connection{ID: i, Src: s, Dst: d, Primary: r.Primary, Backup: r.Backup})
		}
		used := totalUsed(net)
		res := Optimize(net, conns, 3, nil)
		if res.LoadAfter > res.LoadBefore+1e-12 {
			t.Fatalf("trial %d: load worsened %g → %g", trial, res.LoadBefore, res.LoadAfter)
		}
		// No channels created or destroyed beyond re-routing: every
		// connection still fully reserved, and releasing all restores idle.
		_ = used
		for _, c := range conns {
			release(net, c.Primary, c.Backup)
		}
		if net.NetworkLoad() != 0 {
			t.Fatalf("trial %d: channels leaked", trial)
		}
	}
}

func TestOptimizeCountsMoves(t *testing.T) {
	// Same hotspot network as above; with a forced improvement some
	// connection must move and be counted.
	net := wdm.NewNetwork(6, 2)
	net.AddUniformLink(0, 1, 1)
	net.AddUniformLink(1, 5, 1)
	net.AddUniformLink(0, 2, 1.1)
	net.AddUniformLink(2, 5, 1.1)
	net.AddUniformLink(0, 3, 4)
	net.AddUniformLink(3, 4, 4)
	net.AddUniformLink(4, 5, 4)
	net.SetAllConverters(wdm.NewFullConverter(2, 0.5))
	conns := []*Connection{establish(t, net, 0, 0, 5), establish(t, net, 1, 0, 5)}
	res := Optimize(net, conns, 0, nil)
	if res.LoadAfter < res.LoadBefore && res.Moves == 0 {
		t.Fatal("load improved but no move counted")
	}
	if res.Rounds == 0 {
		t.Fatal("rounds not counted")
	}
}
