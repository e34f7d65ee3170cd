package provision

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/topo"
	"repro/internal/wdm"
)

// writeHops writes a path's (link.λ) hops to w.
func writeHops(w io.Writer, p *wdm.Semilightpath) {
	for _, h := range p.Hops {
		fmt.Fprintf(w, "%d.%d ", h.Link, h.Wavelength)
	}
}

// TestProvisionPinned fingerprints Provision on the E12 workload: 20 seeds
// of 30 random demands on NSFNET (W=4), under the five MinCost
// configurations E12 tabulates plus one MinLoadCost arm with improvement
// passes. Each configuration's fingerprint covers every placement's hops,
// Placed, Failed, Improved, the bits of TotalCost and the final ρ, so a
// change to how demands are placed, improved or released shows up even
// where E12's four printed digits do not move.
func TestProvisionPinned(t *testing.T) {
	runs := []struct {
		cfg    Config
		placed int
		hash   uint64
	}{
		{Config{Algorithm: core.MinCost}, 387, 0x7b041e0e7b25c35c},
		{Config{Algorithm: core.MinCost, Order: LongestFirst}, 366, 0x2775517a088219a1},
		{Config{Algorithm: core.MinCost, Order: ShortestFirst}, 400, 0x42126dd3abaf55f0},
		{Config{Algorithm: core.MinCost, ImprovePasses: 3}, 387, 0x1123a93d15e2416b},
		{Config{Algorithm: core.MinCost, Order: LongestFirst, ImprovePasses: 3}, 366, 0xced0c506976b9af5},
		{Config{Algorithm: core.MinLoadCost, ImprovePasses: 3}, 394, 0x3dc80223706b43c8},
	}
	for ri, run := range runs {
		h := fnv.New64a()
		placed := 0
		for seed := 0; seed < 20; seed++ {
			rng := rand.New(rand.NewSource(int64(61000 + seed)))
			ds := make([]Demand, 30)
			for k := range ds {
				s := rng.Intn(14)
				d := rng.Intn(13)
				if d >= s {
					d++
				}
				ds[k] = Demand{ID: k, Src: s, Dst: d}
			}
			res := Provision(topo.NSFNET(topo.Config{W: 4}), ds, run.cfg)
			for i, p := range res.Placements {
				fmt.Fprintf(h, "%d:", i)
				if p.Route == nil {
					fmt.Fprint(h, "-;")
					continue
				}
				writeHops(h, p.Route.Primary)
				fmt.Fprint(h, "/ ")
				writeHops(h, p.Route.Backup)
				fmt.Fprint(h, ";")
			}
			fmt.Fprintf(h, "|%d %d %d %#x %#x|", res.Placed, res.Failed, res.Improved,
				math.Float64bits(res.TotalCost), math.Float64bits(res.NetworkLoad))
			placed += res.Placed
		}
		if placed != run.placed || h.Sum64() != run.hash {
			t.Errorf("config %d %+v: %d placed, fingerprint %#x; pinned %d, %#x",
				ri, run.cfg, placed, h.Sum64(), run.placed, run.hash)
		}
	}
}
