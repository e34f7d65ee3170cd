package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/auxgraph"
	"repro/internal/conns"
	"repro/internal/topo"
	"repro/internal/wdm"
)

// refExactMinCost is ApproxMinCost's exact pipeline on a fresh skeleton and
// a fresh router, with no candidate tier and no feasibility test: G′ by
// ReweightAt(Cost), Suurballe, then the Lemma 2 refinement.
func refExactMinCost(net *wdm.Network, s, t int) (*Result, bool) {
	r := NewRouter(nil)
	a := auxgraph.NewSharedSkeleton(net).ReweightAt(s, t, auxgraph.Params{Kind: auxgraph.Cost})
	pair, ok := r.ws.Suurballe(a.G, a.S, a.T)
	if !ok {
		return nil, false
	}
	return r.mapAndRefine(net, a, pair, nil)
}

// resultDiff describes how two routing answers differ bit for bit, or
// returns "" when they are the same answer.
func resultDiff(got *Result, gotOK bool, want *Result, wantOK bool) string {
	if gotOK != wantOK {
		return fmt.Sprintf("ok %v, want %v", gotOK, wantOK)
	}
	if !gotOK {
		return ""
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	switch {
	case !same(got.Cost, want.Cost), !same(got.AuxWeight, want.AuxWeight),
		!same(got.NaiveCost, want.NaiveCost), !same(got.PathLoad, want.PathLoad):
		return fmt.Sprintf("cost/aux/naive/load %v/%v/%v/%v, want %v/%v/%v/%v",
			got.Cost, got.AuxWeight, got.NaiveCost, got.PathLoad, want.Cost, want.AuxWeight, want.NaiveCost, want.PathLoad)
	case !slices.Equal(got.Primary.Hops, want.Primary.Hops), !slices.Equal(got.Backup.Hops, want.Backup.Hops):
		return fmt.Sprintf("hops %v | %v, want %v | %v", got.Primary.Hops, got.Backup.Hops, want.Primary.Hops, want.Backup.Hops)
	}
	return ""
}

// feasibleStats counts what a feasibility differential covered: fallbacks
// the exact pipeline served and fallbacks that blocked, on fully converting
// networks (index 0, where the test runs on the physical graph) and on the
// others (index 1, the aux graph), and candidate hits.
type feasibleStats struct {
	served, blocked [2]int
	hits            int
}

// passKind is the feasibleStats index of net: 0 when every node converts
// fully, 1 otherwise.
func passKind(net *wdm.Network) int {
	for v := 0; v < net.Nodes(); v++ {
		if _, ok := net.Converter(v).(*wdm.FullConverter); !ok {
			return 1
		}
	}
	return 0
}

// feasibleNet returns a random instance for the feasibility differential:
// a fully converting network (randomWDM, or NSFNET at W=8 as the simulator
// runs it) or a restricted-conversion one (randomWDM with Range and No
// converters at some nodes, or boundNet: partial installed sets,
// Range/Matrix/No converters), so the test runs on the physical and on the
// aux graph, at a random occupancy, with a few links taken down by conns.Table.Fail,
// which quarantines their free channels.
func feasibleNet(rng *rand.Rand) *wdm.Network {
	var net *wdm.Network
	switch rng.Intn(4) {
	case 0:
		net = randomWDM(rng, 4+rng.Intn(5), 1+rng.Intn(3), false)
	case 1:
		net = topo.NSFNET(topo.Config{W: 8})
	case 2: // randomWDM with range-limited or no conversion at some nodes
		w := 2 + rng.Intn(3)
		net = randomWDM(rng, 4+rng.Intn(5), w, false)
		for v := 0; v < net.Nodes(); v++ {
			switch rng.Intn(3) {
			case 0:
				net.SetConverter(v, wdm.NewRangeConverter(1, 0.5))
			case 1:
				net.SetConverter(v, wdm.NoConverter{})
			}
		}
	default:
		net = boundNet(rng) // already partly occupied
	}
	useRandomly(rng, net, rng.Float64()*0.5)
	tab := conns.New[struct{}](net)
	for i := rng.Intn(3); i > 0; i-- {
		tab.Fail(rng.Intn(net.Links()))
	}
	return net
}

// starve fills every free channel of each of links but the first keep, so
// an endpoint whose out- or in-links they are keeps at most keep usable
// ones.
func starve(net *wdm.Network, links []int, keep int) {
	for _, id := range links[min(keep, len(links)):] {
		l := net.Link(id)
		for lam := 0; lam < net.W(); lam++ {
			if l.HasAvail(lam) {
				if err := net.Use(id, lam); err != nil {
					panic(err)
				}
			}
		}
	}
}

// checkFeasibleBlocks routes a stream of requests on one random instance
// with a warm candidate-tier router and, on every request the tier
// declines, compares the router's answer with refExactMinCost's, bit for
// bit, blocks included. Between requests the occupancy churns (random
// reservations and releases) and now and then an endpoint is starved, so
// the warm skeleton's caches follow the journal across admission passes.
func checkFeasibleBlocks(t testing.TB, seed int64, st *feasibleStats) {
	rng := rand.New(rand.NewSource(seed))
	net := feasibleNet(rng)
	n, kind := net.Nodes(), passKind(net)
	r := NewRouter(&Options{CandidateTable: NewCandidateTable(net, 1+rng.Intn(2)), ReuseResult: rng.Intn(2) == 0})
	var held []wdm.Hop // channels this stream reserved, so it may release them
	for req := 0; req < 24; req++ {
		s, d := rng.Intn(n), rng.Intn(n)
		if s == d && rng.Intn(8) != 0 {
			d = (s + 1 + rng.Intn(n-1)) % n
		}
		switch rng.Intn(10) {
		case 0:
			starve(net, net.Out(s), rng.Intn(2))
		case 1:
			starve(net, net.In(d), rng.Intn(2))
		}
		got, gotOK := r.ApproxMinCost(net, s, d)
		if r.LastTier() != TierFallback {
			st.hits++
		} else {
			want, wantOK := refExactMinCost(net, s, d)
			if diff := resultDiff(got, gotOK, want, wantOK); diff != "" {
				t.Fatalf("seed %d request %d %d→%d: %s", seed, req, s, d, diff)
			}
			if gotOK {
				st.served[kind]++
			} else {
				st.blocked[kind]++
			}
		}
		for i := rng.Intn(4); i > 0; i-- {
			id, lam := rng.Intn(net.Links()), rng.Intn(net.W())
			if net.Link(id).HasAvail(lam) {
				if err := net.Use(id, lam); err != nil {
					t.Fatal(err)
				}
				held = append(held, wdm.Hop{Link: id, Wavelength: lam})
			}
		}
		for i := rng.Intn(6); i > 0 && len(held) > 0; i-- {
			j := rng.Intn(len(held))
			if err := net.Release(held[j].Link, held[j].Wavelength); err != nil {
				t.Fatal(err)
			}
			held[j] = held[len(held)-1]
			held = held[:len(held)-1]
		}
	}
}

// TestFeasibleBlocksMatchExact pins the feasibility test before the exact
// fallback to the pipeline without it: over random full- and
// restricted-conversion instances with quarantined links and starved
// endpoints, every request the candidate tier declines gets the answer a
// fresh-skeleton ReweightAt + Suurballe + refinement gives, and blocks on
// the same requests.
func TestFeasibleBlocksMatchExact(t *testing.T) {
	var st feasibleStats
	for seed := int64(0); seed < 300; seed++ {
		checkFeasibleBlocks(t, seed, &st)
	}
	t.Logf("fallbacks served %v, blocked %v (full, restricted conversion); candidate hits %d", st.served, st.blocked, st.hits)
	for kind := range st.served {
		if st.served[kind] < 100 || st.blocked[kind] < 100 {
			t.Fatalf("degenerate sample: fallbacks served %v, blocked %v", st.served, st.blocked)
		}
	}
}

// FuzzFeasibleBlocks runs the feasibility differential on fuzzer-chosen
// seeds.
func FuzzFeasibleBlocks(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkFeasibleBlocks(t, seed, &feasibleStats{})
	})
}
