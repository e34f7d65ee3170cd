package reconfig

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/conns"
	"repro/internal/core"
	"repro/internal/topo"
	"repro/internal/wdm"
)

// TestOptimizePinned fingerprints Optimize on the E19 workload: 15 seeds of
// 18 random demands on NSFNET (W=8), loaded by each of the two routers E19
// compares and then reconfigured. Each router's fingerprint covers
// LoadBefore, LoadAfter, Moves, Rounds and every connection's final hops,
// so a change to which connections move, or where, shows up even where
// E19's four printed digits do not move.
func TestOptimizePinned(t *testing.T) {
	runs := []struct {
		name  string
		route func(*core.Router, *wdm.Network, int, int) (*core.Result, bool)
		moves int
		hash  uint64
	}{
		{"min-cost", (*core.Router).ApproxMinCost, 61, 0x63dd23f7b45e37b5},
		{"min-load-cost", (*core.Router).MinLoadCost, 39, 0x450ea951967f4322},
	}
	for _, run := range runs {
		h := fnv.New64a()
		moves := 0
		for seed := 0; seed < 15; seed++ {
			rng := rand.New(rand.NewSource(int64(97000 + seed)))
			tab := conns.New[struct{}](topo.NSFNET(topo.Config{W: 8}))
			router := core.NewRouter(nil)
			for k := 0; k < 18; k++ {
				s := rng.Intn(14)
				d := rng.Intn(13)
				if d >= s {
					d++
				}
				r, ok := run.route(router, tab.Network(), s, d)
				if !ok {
					continue
				}
				if _, err := tab.Admit(int64(k), s, d, conns.Pair{Primary: r.Primary.Hops, Backup: r.Backup.Hops}); err != nil {
					t.Fatal(err)
				}
			}
			res := Optimize(tab)
			fmt.Fprintf(h, "|%#x %#x %d %d|", math.Float64bits(res.LoadBefore),
				math.Float64bits(res.LoadAfter), res.Moves, res.Rounds)
			for _, id := range tab.IDs(nil) {
				c, _ := tab.Get(id)
				fmt.Fprintf(h, "%d:", c.ID)
				for _, hp := range c.Primary {
					fmt.Fprintf(h, "%d.%d ", hp.Link, hp.Wavelength)
				}
				fmt.Fprint(h, "/ ")
				for _, hp := range c.Backup {
					fmt.Fprintf(h, "%d.%d ", hp.Link, hp.Wavelength)
				}
				fmt.Fprint(h, ";")
			}
			moves += res.Moves
		}
		if moves != run.moves || h.Sum64() != run.hash {
			t.Errorf("%s: %d moves, fingerprint %#x; pinned %d, %#x",
				run.name, moves, h.Sum64(), run.moves, run.hash)
		}
	}
}
