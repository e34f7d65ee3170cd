// Package cli holds the flag-value parsing shared by the command-line
// tools: topology construction by name, algorithm and restoration-mode
// lookup. Keeping it here makes the behaviour testable and identical across
// wdmroute, wdmsim and wdmtopo.
package cli

import (
	"fmt"

	"repro/internal/netsim"
	"repro/internal/topo"
	"repro/internal/topofile"
	"repro/internal/wdm"
)

// TopologyNames lists the accepted -topo values.
var TopologyNames = []string{"nsfnet", "arpa2", "ring", "grid", "waxman", "complete"}

// BuildTopology constructs a named topology. n seeds the parametric
// generators (ring/grid/waxman/complete node counts); seed drives the
// random ones.
func BuildTopology(name string, n, w int, seed int64) (*wdm.Network, error) {
	cfg := topo.Config{W: w}
	switch name {
	case "nsfnet":
		return topo.NSFNET(cfg), nil
	case "arpa2":
		return topo.ARPA2(cfg), nil
	case "ring":
		return topo.Ring(n, cfg), nil
	case "grid":
		return topo.Grid(n, n, cfg), nil
	case "waxman":
		return topo.Waxman(n, 0.4, 0.4, seed, cfg), nil
	case "complete":
		return topo.Complete(n, cfg), nil
	}
	return nil, fmt.Errorf("unknown topology %q (want one of %v)", name, TopologyNames)
}

// LoadOrBuild loads a JSON topology when file is non-empty, otherwise
// builds the named one.
func LoadOrBuild(file, name string, n, w int, seed int64) (*wdm.Network, error) {
	if file != "" {
		return topofile.Load(file)
	}
	return BuildTopology(name, n, w, seed)
}

// ParseRestoration maps a -restore value to the simulator enum.
func ParseRestoration(s string) (netsim.Restoration, error) {
	switch s {
	case "active":
		return netsim.Active, nil
	case "passive":
		return netsim.Passive, nil
	}
	return 0, fmt.Errorf("unknown restoration %q (active, passive)", s)
}
