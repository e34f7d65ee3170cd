package core

import (
	"fmt"

	"repro/internal/wdm"
)

// Algorithm selects one of the four protected-pair routing disciplines the
// simulator and the daemon dispatch through Router.Route.
type Algorithm int

const (
	// MinCost is ApproxMinCost (§3.3) — cost only.
	MinCost Algorithm = iota
	// MinLoad is Find_Two_Paths_MinCog (§4.1) — load only.
	MinLoad
	// MinLoadCost is the two-phase §4.2 algorithm — load then cost.
	MinLoadCost
	// TwoStep is the naive shortest-then-remove baseline.
	TwoStep
)

func (a Algorithm) String() string {
	switch a {
	case MinCost:
		return "min-cost"
	case MinLoad:
		return "min-load"
	case MinLoadCost:
		return "min-load-cost"
	case TwoStep:
		return "two-step"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// ParseAlgorithm maps an algorithm name (a -algo flag, a request's "algo"
// field) to its Algorithm.
func ParseAlgorithm(s string) (Algorithm, error) {
	switch s {
	case "min-cost":
		return MinCost, nil
	case "min-load":
		return MinLoad, nil
	case "min-load-cost":
		return MinLoadCost, nil
	case "two-step":
		return TwoStep, nil
	}
	return 0, fmt.Errorf("unknown algorithm %q (min-cost, min-load, min-load-cost, two-step)", s)
}

// Route dispatches (s, t) to the router method alg names.
func (r *Router) Route(alg Algorithm, net *wdm.Network, s, t int) (*Result, bool) {
	switch alg {
	case MinCost:
		return r.ApproxMinCost(net, s, t)
	case MinLoad:
		return r.MinLoad(net, s, t)
	case MinLoadCost:
		return r.MinLoadCost(net, s, t)
	case TwoStep:
		return r.TwoStepMinCost(net, s, t)
	}
	panic("core: unknown algorithm")
}
