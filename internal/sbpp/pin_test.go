package sbpp

import (
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"testing"

	"repro/internal/topo"
	"repro/internal/wdm"
)

// TestPlacementsPinned fingerprints the placements of a seeded
// establish/teardown stream on NSFNET (W=4): every connection's primary and
// backup hops and the final capacity report. The backup search is the incremental-cost Dijkstra, so
// any change to the shortest-path kernel that alters one backup changes the
// fingerprint.
func TestPlacementsPinned(t *testing.T) {
	const (
		wantPlaced = 178
		wantHash   = uint64(0x4a6eca536d2f2cb7)
	)
	rng := rand.New(rand.NewSource(5))
	m := NewManager(topo.NSFNET(topo.Config{W: 4}))
	h := fnv.New64a()
	hops := func(w io.Writer, p *wdm.Semilightpath) {
		if p == nil {
			fmt.Fprint(w, "-")
			return
		}
		for _, hp := range p.Hops {
			fmt.Fprintf(w, "%d.%d ", hp.Link, hp.Wavelength)
		}
	}
	var live []int
	placed := 0
	for op := 0; op < 400; op++ {
		if rng.Intn(10) < 6 || len(live) == 0 {
			s := rng.Intn(14)
			d := rng.Intn(13)
			if d >= s {
				d++
			}
			c, ok := m.Establish(s, d)
			if !ok {
				fmt.Fprintf(h, "%d:block;", op)
				continue
			}
			placed++
			live = append(live, c.ID)
			fmt.Fprintf(h, "%d:conn %d ", op, c.ID)
			hops(h, c.Primary)
			fmt.Fprint(h, "/ ")
			hops(h, c.Backup)
			fmt.Fprint(h, ";")
			continue
		}
		i := rng.Intn(len(live))
		if err := m.Teardown(live[i]); err != nil {
			t.Fatal(err)
		}
		live = append(live[:i], live[i+1:]...)
	}
	fmt.Fprintf(h, "%+v", m.Report())
	if placed != wantPlaced || h.Sum64() != wantHash {
		t.Fatalf("sbpp stream: %d placed, fingerprint %#x; pinned %d, %#x", placed, h.Sum64(), wantPlaced, wantHash)
	}
}
