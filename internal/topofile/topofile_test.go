package topofile

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/topo"
	"repro/internal/wdm"
)

const sample = `{
  "nodes": 4,
  "wavelengths": 2,
  "converter": {"kind": "full", "cost": 0.5},
  "links": [
    {"from": 0, "to": 1, "cost": 1.0, "bidir": true},
    {"from": 1, "to": 2, "cost": 2.0},
    {"from": 2, "to": 3, "wavelengths": [0], "costs": [2.5]},
    {"from": 0, "to": 3, "cost": 9}
  ]
}`

func TestDecodeSample(t *testing.T) {
	net, err := Decode(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if net.Nodes() != 4 || net.W() != 2 {
		t.Fatalf("dims: %d nodes, W=%d", net.Nodes(), net.W())
	}
	// bidir pair + 3 single links = 5 directed links.
	if net.Links() != 5 {
		t.Fatalf("links = %d, want 5", net.Links())
	}
	// Partial installation respected.
	var partial *wdm.Link
	for id := 0; id < net.Links(); id++ {
		l := net.Link(id)
		if l.From == 2 && l.To == 3 {
			partial = l
		}
	}
	if partial == nil || partial.N() != 1 || partial.Cost(0) != 2.5 {
		t.Fatalf("partial link wrong: %+v", partial)
	}
	if !math.IsInf(partial.Cost(1), 1) {
		t.Fatal("uninstalled wavelength should cost +Inf")
	}
	if got := net.ConvCost(0, 0, 1); got != 0.5 {
		t.Fatalf("conversion cost = %g", got)
	}
	// The decoded network is routable end to end.
	if _, ok := core.NewRouter(nil).ApproxMinCost(net, 0, 3); !ok {
		t.Fatal("decoded network should route 0→3 robustly")
	}
}

func TestConverterKinds(t *testing.T) {
	mk := func(conv string) (*wdm.Network, error) {
		return Decode(strings.NewReader(`{
			"nodes": 2, "wavelengths": 3,
			"converter": ` + conv + `,
			"links": [{"from": 0, "to": 1, "cost": 1}]
		}`))
	}
	if net, err := mk(`{"kind": "none"}`); err != nil || net.Converter(0).Allowed(0, 1) {
		t.Fatalf("none converter: %v", err)
	}
	if net, err := mk(`{"kind": "range", "range": 1, "cost": 2}`); err != nil ||
		net.Converter(0).Allowed(0, 2) || !net.Converter(0).Allowed(0, 1) {
		t.Fatalf("range converter: %v", err)
	}
	if net, err := mk(`{}`); err != nil || !net.Converter(0).Allowed(0, 2) {
		t.Fatalf("default converter should be full: %v", err)
	}
	if _, err := mk(`{"kind": "quantum"}`); err == nil {
		t.Fatal("unknown converter accepted")
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := map[string]string{
		"badJSON":      `{`,
		"unknownField": `{"nodes": 2, "wavelengths": 1, "zap": 1, "links": []}`,
		"noNodes":      `{"nodes": 0, "wavelengths": 1, "links": []}`,
		"noW":          `{"nodes": 2, "wavelengths": 0, "links": []}`,
		"linkRange":    `{"nodes": 2, "wavelengths": 1, "links": [{"from": 0, "to": 5, "cost": 1}]}`,
		"selfLoop":     `{"nodes": 2, "wavelengths": 1, "links": [{"from": 1, "to": 1, "cost": 1}]}`,
		"zeroCost":     `{"nodes": 2, "wavelengths": 1, "links": [{"from": 0, "to": 1}]}`,
		"lenMismatch":  `{"nodes": 2, "wavelengths": 2, "links": [{"from": 0, "to": 1, "wavelengths": [0, 1], "costs": [1]}]}`,
		"lamRange":     `{"nodes": 2, "wavelengths": 2, "links": [{"from": 0, "to": 1, "wavelengths": [5], "costs": [1]}]}`,
		"negCost":      `{"nodes": 2, "wavelengths": 2, "links": [{"from": 0, "to": 1, "wavelengths": [0], "costs": [-1]}]}`,
		"negConv":      `{"nodes": 2, "wavelengths": 1, "converter": {"cost": -1}, "links": []}`,
	}
	for name, src := range cases {
		if _, err := Decode(strings.NewReader(src)); err == nil {
			t.Errorf("%s: decode accepted invalid input", name)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	orig := topo.NSFNET(topo.Config{W: 4})
	f := Describe(orig, ConverterSpec{Kind: "full", Cost: 0.5})
	var buf bytes.Buffer
	if err := f.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Nodes() != orig.Nodes() || back.Links() != orig.Links() || back.W() != orig.W() {
		t.Fatal("round trip changed dimensions")
	}
	for id := 0; id < orig.Links(); id++ {
		lo, lb := orig.Link(id), back.Link(id)
		if lo.From != lb.From || lo.To != lb.To || lo.N() != lb.N() {
			t.Fatalf("link %d mismatch", id)
		}
		lo.Lambda().ForEach(func(lam int) bool {
			if lo.Cost(lam) != lb.Cost(lam) {
				t.Fatalf("link %d λ%d cost mismatch", id, lam)
			}
			return true
		})
	}
}

func TestSaveLoad(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/net.json"
	f := Describe(topo.Ring(5, topo.Config{W: 2}), ConverterSpec{Kind: "full", Cost: 0.5})
	if err := Save(path, f); err != nil {
		t.Fatal(err)
	}
	net, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if net.Nodes() != 5 || net.Links() != 10 {
		t.Fatal("loaded network wrong")
	}
	if _, err := Load(dir + "/missing.json"); err == nil {
		t.Fatal("missing file should error")
	}
}
