package cli

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/topofile"
)

func TestBuildTopologyAllNames(t *testing.T) {
	for _, name := range TopologyNames {
		net, err := BuildTopology(name, 6, 4, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if net.Nodes() < 2 || net.Links() == 0 || net.W() != 4 {
			t.Fatalf("%s: degenerate network", name)
		}
	}
	if _, err := BuildTopology("torus", 6, 4, 1); err == nil {
		t.Fatal("unknown topology accepted")
	}
}

func TestBuildTopologySizes(t *testing.T) {
	cases := map[string]int{"nsfnet": 14, "arpa2": 20, "ring": 6, "grid": 36, "waxman": 6, "complete": 6}
	for name, nodes := range cases {
		net, err := BuildTopology(name, 6, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		if net.Nodes() != nodes {
			t.Fatalf("%s: nodes = %d, want %d", name, net.Nodes(), nodes)
		}
	}
}

func TestLoadOrBuild(t *testing.T) {
	// Build path.
	net, err := LoadOrBuild("", "ring", 5, 2, 1)
	if err != nil || net.Nodes() != 5 {
		t.Fatalf("build path: %v", err)
	}
	// Load path.
	dir := t.TempDir()
	path := dir + "/n.json"
	orig, _ := BuildTopology("nsfnet", 0, 2, 1)
	if err := topofile.Save(path, topofile.Describe(orig, topofile.ConverterSpec{Kind: "full", Cost: 0.5})); err != nil {
		t.Fatal(err)
	}
	net, err = LoadOrBuild(path, "ignored", 0, 0, 0)
	if err != nil || net.Nodes() != 14 {
		t.Fatalf("load path: %v", err)
	}
	if _, err := LoadOrBuild(dir+"/missing.json", "", 0, 0, 0); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestParseRestoration(t *testing.T) {
	if r, err := ParseRestoration("active"); err != nil || r != netsim.Active {
		t.Fatal("active failed")
	}
	if r, err := ParseRestoration("passive"); err != nil || r != netsim.Passive {
		t.Fatal("passive failed")
	}
	if _, err := ParseRestoration("psychic"); err == nil {
		t.Fatal("unknown restoration accepted")
	}
}
