package workload

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPoissonBasics(t *testing.T) {
	c := PoissonConfig{Nodes: 10, ArrivalRate: 2, MeanHolding: 5, Count: 1000, Seed: 1}
	reqs := Poisson(c)
	if len(reqs) != 1000 {
		t.Fatalf("len = %d", len(reqs))
	}
	prev := 0.0
	for i, r := range reqs {
		if r.ID != i {
			t.Fatalf("ID[%d] = %d", i, r.ID)
		}
		if r.Arrival <= prev {
			t.Fatal("arrivals not strictly increasing")
		}
		prev = r.Arrival
		if r.Src == r.Dst || r.Src < 0 || r.Src >= 10 || r.Dst < 0 || r.Dst >= 10 {
			t.Fatalf("bad endpoints %d→%d", r.Src, r.Dst)
		}
		if r.Holding <= 0 {
			t.Fatal("non-positive holding")
		}
		if r.Departure() != r.Arrival+r.Holding {
			t.Fatal("Departure mismatch")
		}
	}
}

func TestPoissonDeterministic(t *testing.T) {
	c := PoissonConfig{Nodes: 5, ArrivalRate: 1, MeanHolding: 1, Count: 50, Seed: 42}
	a := Poisson(c)
	b := Poisson(c)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different streams")
		}
	}
	c.Seed = 43
	d := Poisson(c)
	same := true
	for i := range a {
		if a[i] != d[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestPoissonRates(t *testing.T) {
	// Empirical mean inter-arrival ≈ 1/λ and mean holding ≈ 1/μ.
	c := PoissonConfig{Nodes: 4, ArrivalRate: 4, MeanHolding: 2.5, Count: 20000, Seed: 9}
	reqs := Poisson(c)
	last := reqs[len(reqs)-1].Arrival
	meanInter := last / float64(len(reqs))
	if math.Abs(meanInter-0.25) > 0.02 {
		t.Fatalf("mean inter-arrival = %g, want ≈ 0.25", meanInter)
	}
	sumH := 0.0
	for _, r := range reqs {
		sumH += r.Holding
	}
	if meanH := sumH / float64(len(reqs)); math.Abs(meanH-2.5) > 0.1 {
		t.Fatalf("mean holding = %g, want ≈ 2.5", meanH)
	}
}

func TestPoissonHotPairs(t *testing.T) {
	c := PoissonConfig{
		Nodes: 10, ArrivalRate: 1, MeanHolding: 1, Count: 5000, Seed: 3,
		HotPairs: []Pair{{Src: 1, Dst: 2}}, HotFraction: 0.5,
	}
	reqs := Poisson(c)
	hot := 0
	for _, r := range reqs {
		if r.Src == 1 && r.Dst == 2 {
			hot++
		}
	}
	frac := float64(hot) / float64(len(reqs))
	if frac < 0.45 || frac > 0.57 {
		t.Fatalf("hot fraction = %g, want ≈ 0.5", frac)
	}
}

func TestPoissonValidation(t *testing.T) {
	for name, c := range map[string]PoissonConfig{
		"nodes":   {Nodes: 1, ArrivalRate: 1, MeanHolding: 1, Count: 1},
		"rate":    {Nodes: 2, ArrivalRate: 0, MeanHolding: 1, Count: 1},
		"holding": {Nodes: 2, ArrivalRate: 1, MeanHolding: -1, Count: 1},
		"hotfrac": {Nodes: 2, ArrivalRate: 1, MeanHolding: 1, Count: 1, HotFraction: 2},
		"hotmiss": {Nodes: 2, ArrivalRate: 1, MeanHolding: 1, Count: 1, HotFraction: 0.5},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic", name)
				}
			}()
			Poisson(c)
		}()
	}
}

// Property: endpoints always valid and distinct for any seed/size.
func TestQuickEndpointsValid(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := 2 + int(nRaw)%20
		reqs := Poisson(PoissonConfig{
			Nodes: n, ArrivalRate: 1, MeanHolding: 1, Count: 100, Seed: seed,
		})
		for _, r := range reqs {
			if r.Src == r.Dst || r.Src < 0 || r.Src >= n || r.Dst < 0 || r.Dst >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
