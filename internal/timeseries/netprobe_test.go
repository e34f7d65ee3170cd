package timeseries

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/topo"
)

// bits returns a wavelength set of capacity n holding exactly idx.
func bits(n int, idx ...int) *bitset.Set {
	s := bitset.New(n)
	for _, i := range idx {
		s.Add(i)
	}
	return s
}

func TestFragmentation(t *testing.T) {
	almost := func(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

	if Fragmentation(bitset.New(8)) != 0 {
		t.Fatal("empty set must report 0, not NaN")
	}
	if Fragmentation(bits(8, 0, 1, 2, 3, 4, 5, 6, 7)) != 0 {
		t.Fatal("contiguous full set must report 0")
	}
	// One contiguous block, offset from zero: still unfragmented.
	if got := Fragmentation(bits(16, 5, 6, 7, 8)); got != 0 {
		t.Fatalf("contiguous block frag = %g", got)
	}
	// Alternating bits: 4 free, longest run 1 → 1 − 1/4.
	if got := Fragmentation(bits(8, 0, 2, 4, 6)); !almost(got, 0.75) {
		t.Fatalf("alternating frag = %g, want 0.75", got)
	}
	// Two islands of 2 in 6 free → 1 − 2/4.
	if got := Fragmentation(bits(8, 0, 1, 4, 5)); !almost(got, 0.5) {
		t.Fatalf("two-island frag = %g, want 0.5", got)
	}
}

func TestProbeNetwork(t *testing.T) {
	net := topo.NSFNET(topo.Config{W: 4})
	ns := ProbeNetwork(net, 12.5, 7)
	if ns.Time != 12.5 || ns.Nodes != 14 || ns.W != 4 || ns.ActiveConns != 7 {
		t.Fatalf("header = %+v", ns)
	}
	if len(ns.Links) != net.Links() {
		t.Fatalf("probe has %d links, topology has %d", len(ns.Links), net.Links())
	}
	if ns.MeanLoad != 0 || ns.MaxLoad != 0 || ns.MeanFrag != 0 {
		t.Fatalf("idle network shows load: %+v", ns)
	}
	if ns.TotalAvail != net.Links()*4 {
		t.Fatalf("TotalAvail = %d, want %d", ns.TotalAvail, net.Links()*4)
	}

	// Occupy three wavelengths on link 0 (0, 1, 3 → one free, frag 0).
	for _, lam := range []int{0, 1, 3} {
		if err := net.Use(0, lam); err != nil {
			t.Fatal(err)
		}
	}
	ns = ProbeNetwork(net, 13, 7)
	l0 := ns.Links[0]
	if l0.Used != 3 || l0.Load != 0.75 {
		t.Fatalf("link 0 = %+v", l0)
	}
	if ns.MaxLoad != 0.75 {
		t.Fatalf("MaxLoad = %g", ns.MaxLoad)
	}
	if ns.TotalAvail != net.Links()*4-3 {
		t.Fatalf("TotalAvail = %d", ns.TotalAvail)
	}
	if ns.MeanLoad <= 0 || ns.MeanLoad >= 0.75 {
		t.Fatalf("MeanLoad = %g, want strictly between 0 and the max", ns.MeanLoad)
	}
}

// TestProbeNetworkLoadIsEq2 pins the probe to the one Eq. 2 definition: on a
// loaded NSFNET, MaxLoad is wdm.Network.NetworkLoad and every link's Load is
// its wdm.Link.Load.
func TestProbeNetworkLoadIsEq2(t *testing.T) {
	net := topo.NSFNET(topo.Config{W: 8})
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 150; i++ {
		id, lam := rng.Intn(net.Links()), rng.Intn(net.W())
		if net.Link(id).HasAvail(lam) {
			if err := net.Use(id, lam); err != nil {
				t.Fatal(err)
			}
		}
	}
	ns := ProbeNetwork(net, 1, 0)
	if ns.MaxLoad != net.NetworkLoad() || ns.MaxLoad <= 0.5 {
		t.Fatalf("MaxLoad = %g, NetworkLoad = %g (want equal, above 0.5)", ns.MaxLoad, net.NetworkLoad())
	}
	for id, ls := range ns.Links {
		if want := net.Link(id).Load(); ls.Load != want {
			t.Fatalf("link %d: Load = %g, wdm.Link.Load = %g", id, ls.Load, want)
		}
	}
}

// TestSampleNetworkGauges checks the one seal-time network probe: at every
// seal the four network gauges carry the sampled state's aggregates, and
// that state is the one Latest publishes.
func TestSampleNetworkGauges(t *testing.T) {
	if p := (*Collector)(nil).SampleNetwork(nil); p != nil || p.Latest() != nil {
		t.Fatal("nil collector handed out a probe with state")
	}
	net := topo.NSFNET(topo.Config{W: 8})
	c := New(1)
	var sampled *NetState
	p := c.SampleNetwork(func(at float64) *NetState {
		sampled = ProbeNetwork(net, at, int(at))
		return sampled
	})
	if p.Latest() != nil {
		t.Fatal("state published before the first seal")
	}
	rng := rand.New(rand.NewSource(9))
	for w := 1; w <= 4; w++ {
		for i := 0; i < 30; i++ {
			id, lam := rng.Intn(net.Links()), rng.Intn(net.W())
			if net.Link(id).HasAvail(lam) {
				if err := net.Use(id, lam); err != nil {
					t.Fatal(err)
				}
			}
		}
		c.Advance(float64(w))
		if p.Latest() != sampled || sampled.Time != float64(w) {
			t.Fatalf("window %d: Latest = %p, sampled %p at t=%g", w, p.Latest(), sampled, sampled.Time)
		}
		s := latest(c)
		for name, want := range map[string]float64{
			SeriesActiveConns:  float64(sampled.ActiveConns),
			SeriesLinkLoadMean: sampled.MeanLoad,
			SeriesLinkLoadMax:  sampled.MaxLoad,
			SeriesFragMean:     sampled.MeanFrag,
		} {
			if g, ok := s.GaugeOf(name); !ok || g.Samples != 1 || g.Last != want {
				t.Fatalf("window %d: %s = %+v, want %g", w, name, g, want)
			}
		}
	}
	if sampled.MaxLoad != net.NetworkLoad() || sampled.MaxLoad == 0 {
		t.Fatalf("last sample MaxLoad = %g, NetworkLoad = %g", sampled.MaxLoad, net.NetworkLoad())
	}
}
