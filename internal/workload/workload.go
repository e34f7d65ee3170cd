// Package workload generates connection-request streams for the dynamic
// traffic model of §2: requests "arrive to and depart from the network in a
// random manner" and are processed one by one. The canonical generator is a
// Poisson arrival process with exponentially distributed holding times and
// uniformly random distinct endpoints, parameterised by offered load in
// Erlang (arrival rate × mean holding time). Every generator is
// deterministic for a given seed.
package workload

import "math/rand"

// Request is one connection request.
type Request struct {
	ID      int
	Src     int
	Dst     int
	Arrival float64 // arrival time
	Holding float64 // holding duration; the connection departs at Arrival+Holding
}

// Departure returns the teardown time of the request.
func (r Request) Departure() float64 { return r.Arrival + r.Holding }

// PoissonConfig parameterises Poisson.
type PoissonConfig struct {
	// Nodes is the number of network nodes (endpoints drawn uniformly,
	// src ≠ dst).
	Nodes int
	// ArrivalRate is the Poisson arrival rate λ (requests per time unit).
	ArrivalRate float64
	// MeanHolding is the mean of the exponential holding time 1/μ.
	MeanHolding float64
	// Count is the number of requests to generate.
	Count int
	// Seed makes the stream reproducible.
	Seed int64
	// HotPairs, when non-empty, draws this fraction of requests from the
	// listed (src, dst) pairs instead of uniformly (skewed traffic).
	HotPairs []Pair
	// HotFraction is the probability a request uses a hot pair (0 disables).
	HotFraction float64
}

// Pair is an endpoint pair.
type Pair struct{ Src, Dst int }

// Poisson generates a request stream per the config. It panics on invalid
// parameters.
func Poisson(c PoissonConfig) []Request {
	if c.Nodes < 2 {
		panic("workload: need at least 2 nodes")
	}
	if c.ArrivalRate <= 0 || c.MeanHolding <= 0 || c.Count < 0 {
		panic("workload: invalid Poisson parameters")
	}
	if c.HotFraction < 0 || c.HotFraction > 1 {
		panic("workload: invalid hot fraction")
	}
	if c.HotFraction > 0 && len(c.HotPairs) == 0 {
		panic("workload: hot fraction without hot pairs")
	}
	rng := rand.New(rand.NewSource(c.Seed))
	reqs := make([]Request, c.Count)
	t := 0.0
	for i := range reqs {
		t += rng.ExpFloat64() / c.ArrivalRate
		var src, dst int
		if c.HotFraction > 0 && rng.Float64() < c.HotFraction {
			p := c.HotPairs[rng.Intn(len(c.HotPairs))]
			src, dst = p.Src, p.Dst
		} else {
			src = rng.Intn(c.Nodes)
			dst = rng.Intn(c.Nodes - 1)
			if dst >= src {
				dst++
			}
		}
		reqs[i] = Request{
			ID:      i,
			Src:     src,
			Dst:     dst,
			Arrival: t,
			Holding: rng.ExpFloat64() * c.MeanHolding,
		}
	}
	return reqs
}
