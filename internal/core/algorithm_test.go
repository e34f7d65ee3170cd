package core

import (
	"testing"

	"repro/internal/topo"
)

// TestParseAlgorithm pins the four wire and flag names and the error text
// for an unknown one.
func TestParseAlgorithm(t *testing.T) {
	want := map[string]Algorithm{
		"min-cost": MinCost, "min-load": MinLoad,
		"min-load-cost": MinLoadCost, "two-step": TwoStep,
	}
	for s, algo := range want {
		got, err := ParseAlgorithm(s)
		if err != nil || got != algo {
			t.Fatalf("ParseAlgorithm(%q) = %v, %v", s, got, err)
		}
	}
	_, err := ParseAlgorithm("dijkstra")
	if err == nil || err.Error() != `unknown algorithm "dijkstra" (min-cost, min-load, min-load-cost, two-step)` {
		t.Fatalf("unknown algorithm: %v", err)
	}
}

// TestAlgorithmRoundTrip pins the String/ParseAlgorithm round trip and the
// name of an out-of-range value.
func TestAlgorithmRoundTrip(t *testing.T) {
	for _, a := range []Algorithm{MinCost, MinLoad, MinLoadCost, TwoStep} {
		got, err := ParseAlgorithm(a.String())
		if err != nil || got != a {
			t.Fatalf("round trip %v: got %v, err %v", a, got, err)
		}
	}
	if s := Algorithm(99).String(); s != "Algorithm(99)" {
		t.Fatalf("unknown algorithm string: %s", s)
	}
}

// TestRouteDispatches checks Route reaches the method each Algorithm names:
// the same pair, cost and trace kind as calling the method directly.
func TestRouteDispatches(t *testing.T) {
	net := topo.NSFNET(topo.Config{W: 4})
	for _, a := range []Algorithm{MinCost, MinLoad, MinLoadCost, TwoStep} {
		direct := map[Algorithm]func(*Router) (*Result, bool){
			MinCost:     func(r *Router) (*Result, bool) { return r.ApproxMinCost(net, 0, 13) },
			MinLoad:     func(r *Router) (*Result, bool) { return r.MinLoad(net, 0, 13) },
			MinLoadCost: func(r *Router) (*Result, bool) { return r.MinLoadCost(net, 0, 13) },
			TwoStep:     func(r *Router) (*Result, bool) { return r.TwoStepMinCost(net, 0, 13) },
		}[a]
		want, wok := direct(NewRouter(nil))
		got, gok := NewRouter(nil).Route(a, net, 0, 13)
		if gok != wok || !wok || got.Cost != want.Cost || got.Primary.String() != want.Primary.String() {
			t.Fatalf("%v: Route = %v %v, direct = %v %v", a, got, gok, want, wok)
		}
	}
}
