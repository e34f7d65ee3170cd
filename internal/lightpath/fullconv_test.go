package lightpath

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/wdm"
)

// opaqueConverter hides a converter's concrete type, so AssignInto takes its
// generic hop step even for a *wdm.FullConverter.
type opaqueConverter struct{ wdm.Converter }

// bitReader hands out the bits of a byte string, then zeros.
type bitReader struct {
	b   []byte
	pos int
}

func (r *bitReader) bits(n int) int {
	v := 0
	for i := 0; i < n; i++ {
		if r.pos/8 < len(r.b) && r.b[r.pos/8]>>(r.pos%8)&1 == 1 {
			v |= 1 << i
		}
		r.pos++
	}
	return v
}

// Cost palettes that make float ties likely: 0.1+0.2 rounds to a value
// distinct from 0.3, 1e16 absorbs small addends, and −0 checks the sign of
// zero survives.
var (
	tieLinkCosts = [8]float64{0, 0.1, 0.2, 0.3, 1, 1e16, 2.5, math.Copysign(0, -1)}
	tieConvCosts = [8]float64{0, 0.1, 0.2, 1, 1e16, 0.3, 1e-17, math.Copysign(0, -1)}
)

// fullConvInstance builds, from the bits of data, a chain route of 1–6 links
// over W = 1–70 wavelengths (so availability sets span up to two words),
// with random installed and available wavelengths, costs from tieLinkCosts,
// and a full converter at every node whose cost comes from tieConvCosts.
func fullConvInstance(data []byte) (*wdm.Network, []int) {
	r := &bitReader{b: data}
	w := 1 + r.bits(7)%70
	k := 1 + r.bits(3)%6
	conv := tieConvCosts[r.bits(3)]
	g := wdm.NewNetwork(k+1, w)
	g.SetAllConverters(wdm.NewFullConverter(w, conv))
	route := make([]int, k)
	for i := range route {
		var lams []wdm.Wavelength
		var costs []float64
		for lam := 0; lam < w; lam++ {
			if r.bits(2) != 0 { // installed with probability 3/4
				lams = append(lams, lam)
				costs = append(costs, tieLinkCosts[r.bits(3)])
			}
		}
		route[i] = g.AddLink(i, i+1, lams, costs)
		for _, lam := range lams {
			if r.bits(1) == 1 {
				if err := g.Use(route[i], lam); err != nil {
					panic(err)
				}
			}
		}
	}
	return g, route
}

// checkFullStep asserts that AssignInto returns bit-identical hops, cost and
// feasibility through the full-conversion step and through the generic step.
func checkFullStep(t *testing.T, data []byte) {
	t.Helper()
	g, route := fullConvInstance(data)
	slow := g.Clone()
	for v := 0; v < slow.Nodes(); v++ {
		slow.SetConverter(v, opaqueConverter{g.Converter(v)})
	}
	var wsFast, wsSlow AssignWorkspace
	fh, fc, fok := AssignInto(&wsFast, g, route, nil)
	sh, sc, sok := AssignInto(&wsSlow, slow, route, nil)
	if fok != sok || math.Float64bits(fc) != math.Float64bits(sc) || !slices.Equal(fh, sh) {
		t.Fatalf("W=%d route %v: full step (%v, %v, %v) != generic step (%v, %v, %v)",
			g.W(), route, fh, fc, fok, sh, sc, sok)
	}
}

// TestAssignFullConversionMatchesGeneric compares the full-conversion hop
// step with the generic one on random instances.
func TestAssignFullConversionMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 512)
	for i := 0; i < 5000; i++ {
		rng.Read(data)
		checkFullStep(t, data)
	}
}

func FuzzAssignFullConversion(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 8; i++ {
		data := make([]byte, 64<<(i%4))
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(checkFullStep)
}
