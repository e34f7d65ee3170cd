package disjoint

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/auxgraph"
	"repro/internal/graph"
	"repro/internal/topo"
	"repro/internal/wdm"
)

// loadedNSFNET returns NSFNET at W wavelengths with each channel in use
// with probability p, drawn from rng.
func loadedNSFNET(rng *rand.Rand, w int, p float64) *wdm.Network {
	net := topo.NSFNET(topo.Config{W: w})
	for id := 0; id < net.Links(); id++ {
		for l := 0; l < w; l++ {
			if rng.Float64() < p {
				net.Use(id, wdm.Wavelength(l))
			}
		}
	}
	return net
}

// BenchmarkSuurballeNSFNETGrc times Workspace.Suurballe on the graphs
// MinLoadCost searches, at one fixed network state: NSFNET at W=8 with each
// channel in use with probability 0.5 (seed 1), its shared skeleton
// reweighted as G_rc (LoadCost, ϑ = ∞) for every ordered node pair. Each
// operation is one warm Suurballe call, cycling through the 182 pairs, so
// two builds compare on the same inputs.
func BenchmarkSuurballeNSFNETGrc(b *testing.B) {
	net := loadedNSFNET(rand.New(rand.NewSource(1)), 8, 0.5)
	sk := auxgraph.NewSharedSkeleton(net)
	type instance struct {
		g    *graph.Graph
		s, t int
	}
	var cases []instance
	for s := 0; s < net.Nodes(); s++ {
		for t := 0; t < net.Nodes(); t++ {
			if s == t {
				continue
			}
			a := sk.ReweightAt(s, t, auxgraph.Params{Kind: auxgraph.LoadCost, Threshold: math.Inf(1)})
			cases = append(cases, instance{a.G.Clone(), a.S, a.T})
		}
	}
	var ws Workspace
	found := 0
	for _, c := range cases {
		if _, ok := ws.Suurballe(c.g, c.s, c.t); ok {
			found++
		}
	}
	if found == 0 {
		b.Fatal("no pair on any node pair")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := &cases[i%len(cases)]
		ws.Suurballe(c.g, c.s, c.t)
	}
}
