package sbpp

import (
	"math/rand"
	"testing"

	"repro/internal/topo"
)

// TestFailureStreamConservesChannels mixes link failures into a seeded
// establish/teardown stream on NSFNET (W=4): 60% establish, 30% teardown,
// 10% FailLink. No live connection may still run over a link just failed.
// After every operation the channels in use must be exactly
// the live connections' working hops plus the reserved backup channels, so
// an activated connection's working channels can never double as shared
// backup channels, and a lost connection leaves nothing behind. Every
// teardown must succeed, and a full drain must leave ρ = 0 with no backup
// channel.
func TestFailureStreamConservesChannels(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := NewManager(topo.NSFNET(topo.Config{W: 4}))
	net := m.Net()
	conserved := func(op int) {
		t.Helper()
		used := 0
		for id := 0; id < net.Links(); id++ {
			used += net.Link(id).U()
		}
		working := 0
		for _, c := range m.conns {
			working += c.Primary.Len()
		}
		if want := working + m.BackupChannels(); used != want {
			t.Fatalf("op %d: %d channels in use, want %d working + %d backup", op, used, working, m.BackupChannels())
		}
	}
	var live []int
	failures := 0
	for op := 0; op < 400; op++ {
		switch r := rng.Intn(10); {
		case r < 6 || len(live) == 0:
			s := rng.Intn(14)
			d := rng.Intn(13)
			if d >= s {
				d++
			}
			if c, ok := m.Establish(s, d); ok {
				live = append(live, c.ID)
			}
		case r < 9:
			i := rng.Intn(len(live))
			if err := m.Teardown(live[i]); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
			live = append(live[:i], live[i+1:]...)
		default:
			l := rng.Intn(net.Links())
			m.FailLink(l)
			failures++
			for id, c := range m.conns {
				for _, h := range c.Primary.Hops {
					if h.Link == l {
						t.Fatalf("op %d: connection %d (activated %v) still runs over failed link %d", op, id, c.Activated, l)
					}
				}
			}
			kept := live[:0]
			for _, id := range live {
				if m.conns[id] != nil {
					kept = append(kept, id)
				}
			}
			live = kept
		}
		conserved(op)
	}
	if failures == 0 {
		t.Fatal("stream injected no failure")
	}
	for _, id := range live {
		if err := m.Teardown(id); err != nil {
			t.Fatalf("drain: %v", err)
		}
	}
	if rho := net.NetworkLoad(); rho != 0 || m.BackupChannels() != 0 {
		t.Fatalf("after drain: ρ = %g, %d backup channels; want 0, 0", rho, m.BackupChannels())
	}
}
