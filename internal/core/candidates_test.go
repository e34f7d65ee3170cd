package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/check"
	"repro/internal/conns"
	"repro/internal/lightpath"
	"repro/internal/topo"
	"repro/internal/wdm"
)

// TestCandidateTablePinned fingerprints every ordered pair's candidate routes
// of the NSFNET W=8, k=4 table: the Suurballe pair, then the Yen paths with
// their Dijkstra partners, in table order. Any change to the shortest-path
// kernels the table is generated with that alters a single route changes the
// fingerprint.
func TestCandidateTablePinned(t *testing.T) {
	const (
		wantPairs = 554
		wantHash  = uint64(0xeeadd2f733c00ba3)
	)
	tab := NewCandidateTable(topo.NSFNET(topo.Config{W: 8}), 4)
	h := fnv.New64a()
	pairs := 0
	for s := 0; s < tab.n; s++ {
		for d := 0; d < tab.n; d++ {
			for _, cp := range tab.lookup(s, d) {
				fmt.Fprintf(h, "%d>%d %v|%v;", s, d, cp.route1, cp.route2)
				pairs++
			}
		}
	}
	if pairs != wantPairs || h.Sum64() != wantHash {
		t.Fatalf("candidate table: %d pairs, fingerprint %#x; pinned %d pairs, %#x", pairs, h.Sum64(), wantPairs, wantHash)
	}
}

// TestCandidateTableConcurrentFill has several goroutines look up every
// pair of one fresh NSFNET W=8, k=4 table at once, each in its own order, so
// first lookups of one pair race. Every goroutine must see the entry the
// table published, and the entries must equal those of a table filled by
// one goroutine in table order — the table TestCandidateTablePinned pins.
func TestCandidateTableConcurrentFill(t *testing.T) {
	net := topo.NSFNET(topo.Config{W: 8})
	ref := NewCandidateTable(net, 4)
	tab := NewCandidateTable(net, 4)
	n := tab.n
	const workers = 4
	seen := make([][][]candPair, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := make([][]candPair, n*n)
			for _, i := range rand.New(rand.NewSource(int64(w))).Perm(n * n) {
				got[i] = tab.lookup(i/n, i%n)
			}
			seen[w] = got
		}()
	}
	wg.Wait()
	for i := 0; i < n*n; i++ {
		s, d := i/n, i%n
		want := ref.lookup(s, d)
		if !reflect.DeepEqual(tab.lookup(s, d), want) {
			t.Fatalf("%d>%d: concurrently filled entry differs from the serial fill", s, d)
		}
		for w, got := range seen {
			if len(got[i]) != len(want) || len(want) > 0 && &got[i][0] != &tab.lookup(s, d)[0] {
				t.Fatalf("%d>%d: worker %d saw an entry other than the published one", s, d, w)
			}
		}
	}
}

// boundCosts is the cost alphabet of boundNet: few values, so totals tie
// across pairs and wavelengths, and a negative zero, so signed-zero rounding
// is exercised.
var boundCosts = []float64{math.Copysign(0, -1), 0, 0.5, 1, 1, 2, 3}

// boundNet builds a random network for the candidate-bound tests: a
// bidirectional ring plus chords, per-wavelength costs drawn from boundCosts,
// partial installed sets (N(e) < W, now and then N(e) = 0), a random
// Full/Range/Matrix/No converter per node and a random share of the
// installed channels in use.
func boundNet(rng *rand.Rand) *wdm.Network {
	n := 4 + rng.Intn(4)
	w := 1 + rng.Intn(4)
	net := wdm.NewNetwork(n, w)
	cost := func() float64 { return boundCosts[rng.Intn(len(boundCosts))] }
	add := func(u, v int) {
		var lams []int
		var cs []float64
		for lam := 0; lam < w; lam++ {
			if rng.Intn(4) != 0 {
				lams = append(lams, lam)
				cs = append(cs, cost())
			}
		}
		net.AddLink(u, v, lams, cs)
	}
	for v := 0; v < n; v++ {
		add(v, (v+1)%n)
		add((v+1)%n, v)
	}
	for i := rng.Intn(2 * n); i > 0; i-- {
		if u, v := rng.Intn(n), rng.Intn(n); u != v {
			add(u, v)
		}
	}
	for v := 0; v < n; v++ {
		switch rng.Intn(4) {
		case 0:
			net.SetConverter(v, wdm.NewFullConverter(w, cost()))
		case 1:
			net.SetConverter(v, wdm.NewRangeConverter(rng.Intn(w), cost()))
		case 2:
			table := make([][]float64, w)
			for i := range table {
				table[i] = make([]float64, w)
				for j := range table[i] {
					switch {
					case i == j:
					case rng.Intn(3) == 0:
						table[i][j] = -1 // disallowed
					default:
						table[i][j] = cost()
					}
				}
			}
			net.SetConverter(v, wdm.NewMatrixConverter(w, table))
		default:
			net.SetConverter(v, wdm.NoConverter{})
		}
	}
	useRandomly(rng, net, rng.Float64()*0.7)
	return net
}

// useRandomly reserves each available channel of net with probability p.
func useRandomly(rng *rand.Rand, net *wdm.Network, p float64) {
	for id := 0; id < net.Links(); id++ {
		l := net.Link(id)
		for lam := 0; lam < net.W(); lam++ {
			if l.HasAvail(lam) && rng.Float64() < p {
				if err := net.Use(id, lam); err != nil {
					panic(err)
				}
			}
		}
	}
}

// refCandidateRoute is the candidate tier's loop without the cost bound:
// every pair whose links all have a free channel is priced by two DPs and
// the strictly cheapest feasible pair wins, its routes in table order. It
// also counts the pairs whose bound reaches the best total priced before
// them, which the bounded tier may skip.
func refCandidateRoute(net *wdm.Network, cands []candPair) (hops [2][]wdm.Hop, costs [2]float64, ok bool, prunable int) {
	var aw lightpath.AssignWorkspace
	best := math.Inf(1)
	for ci := range cands {
		cp := &cands[ci]
		if ok && cp.lb1+cp.lb2 >= best {
			prunable++
		}
		if !routeAvailable(net, cp.route1, math.Inf(1)) || !routeAvailable(net, cp.route2, math.Inf(1)) {
			continue
		}
		h1, c1, ok1 := lightpath.AssignInto(&aw, net, cp.route1, nil)
		if !ok1 {
			continue
		}
		h2, c2, ok2 := lightpath.AssignInto(&aw, net, cp.route2, nil)
		if !ok2 {
			continue
		}
		if total := c1 + c2; total < best {
			ok, best = true, total
			hops, costs = [2][]wdm.Hop{h1, h2}, [2]float64{c1, c2}
		}
	}
	return hops, costs, ok, prunable
}

// checkCandidateBound routes every (s, t) of net through the bounded tier of
// one warm router and through refCandidateRoute, and requires the same
// feasibility, the same hops and bit-identical costs with the same
// primary/backup order. It returns the number of pairs the bound could skip.
func checkCandidateBound(t testing.TB, net *wdm.Network, k int, where string) int {
	t.Helper()
	tab := NewCandidateTable(net, k)
	r := NewRouter(&Options{CandidateTable: tab})
	bits := math.Float64bits
	pruned := 0
	for s := 0; s < net.Nodes(); s++ {
		for d := 0; d < net.Nodes(); d++ {
			cands := tab.lookup(s, d)
			hops, costs, want, n := refCandidateRoute(net, cands)
			pruned += n
			res, got := r.candidateRoute(net, s, d, tab, math.Inf(1), nil)
			if got != want {
				t.Fatalf("%s %d->%d: bounded tier ok=%v, exhaustive ok=%v", where, s, d, got, want)
			}
			if !want {
				continue
			}
			// The tier puts the strictly cheaper route first.
			if costs[1] < costs[0] {
				hops[0], hops[1] = hops[1], hops[0]
			}
			total := costs[0] + costs[1]
			if bits(res.Cost) != bits(total) || bits(res.NaiveCost) != bits(total) {
				t.Fatalf("%s %d->%d: cost %v, exhaustive %v", where, s, d, res.Cost, total)
			}
			if fmt.Sprint(res.Primary.Hops) != fmt.Sprint(hops[0]) || fmt.Sprint(res.Backup.Hops) != fmt.Sprint(hops[1]) {
				t.Fatalf("%s %d->%d: primary %v backup %v, exhaustive %v %v",
					where, s, d, res.Primary.Hops, res.Backup.Hops, hops[0], hops[1])
			}
		}
	}
	return pruned
}

// TestCandidateBoundMatchesExhaustive is the differential test of the
// candidate tier's cost bound: on random networks with non-uniform costs,
// partial installed sets, every converter kind and random occupancy, and on
// NSFNET W=8 across loads, the bounded tier must answer every (s, t) exactly
// as the exhaustive loop does. The bound must also skip something, or the
// comparison shows nothing.
func TestCandidateBoundMatchesExhaustive(t *testing.T) {
	pruned := 0
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pruned += checkCandidateBound(t, boundNet(rng), 1+rng.Intn(4), fmt.Sprintf("seed %d", seed))
	}
	base := topo.NSFNET(topo.Config{W: 8})
	rng := rand.New(rand.NewSource(1))
	for _, p := range []float64{0, 0.3, 0.6, 0.9} {
		net := base.Clone()
		useRandomly(rng, net, p)
		pruned += checkCandidateBound(t, net, 4, fmt.Sprintf("NSFNET load %.1f", p))
	}
	if pruned == 0 {
		t.Fatal("the bound skipped no pair")
	}
	t.Logf("%d pairs skippable by the bound", pruned)
}

// FuzzCandidateBound runs the differential comparison of
// TestCandidateBoundMatchesExhaustive on one random network per input.
func FuzzCandidateBound(f *testing.F) {
	f.Add(int64(1), uint8(4))
	f.Add(int64(7), uint8(2))
	f.Add(int64(-3), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, k uint8) {
		net := boundNet(rand.New(rand.NewSource(seed)))
		checkCandidateBound(t, net, 1+int(k%4), fmt.Sprintf("seed %d", seed))
	})
}

// checkMinLoadCostTier routes every (s, t) of net by MinLoadCost twice, on a
// router without a table and on one with a fresh k-pair table, and checks
// the tier's rules: the same feasibility, ϑ and round count; every hop of
// the tier's pair on a link with load below ϑ; and the per-result
// invariants (available, edge-disjoint hops; Eq. 1 and path-load
// accounting; the cheaper path first). Feasibility may differ one way
// only: under restricted conversion the exact phase 2 can map its
// auxiliary pair to routes with no feasible wavelength assignment and
// block after phase 1 found ϑ, and the tier may still serve the request
// under that ϑ. It returns the number of requests
// the tier answered and the worst tier/exact cost ratio among them. The
// ratio is not gated: with per-wavelength costs that differ from their
// link's mean, as here, the k static pairs can cost several times the
// pair the exact phase 2 finds on the residual state, for ApproxMinCost's
// tier as for this one. The differential harness gates it on its own
// generator's instances.
func checkMinLoadCostTier(t testing.TB, net *wdm.Network, k int, where string) (hits int, worst float64) {
	t.Helper()
	exact := NewRouter(nil)
	tier := NewRouter(&Options{CandidateTable: NewCandidateTable(net, k)})
	for s := 0; s < net.Nodes(); s++ {
		for d := 0; d < net.Nodes(); d++ {
			if s == d {
				continue
			}
			e, okE := exact.MinLoadCost(net, s, d)
			c, okC := tier.MinLoadCost(net, s, d)
			if okE != okC {
				theta, _, iters, found := NewRouter(nil).minCogSearch(net, s, d, nil)
				if okE || !found {
					t.Fatalf("%s %d->%d: tier ok=%v, exact ok=%v, phase 1 ok=%v", where, s, d, okC, okE, found)
				}
				e = &Result{Threshold: theta, Iterations: iters}
			}
			if !okC {
				continue
			}
			if c.Threshold != e.Threshold || c.Iterations != e.Iterations {
				t.Fatalf("%s %d->%d: ϑ %v after %d rounds, exact %v after %d", where, s, d, c.Threshold, c.Iterations, e.Threshold, e.Iterations)
			}
			if tier.LastTier() == TierCandidate {
				hits++
				if okE && e.Cost > 1e-9 {
					worst = max(worst, c.Cost/e.Cost)
				}
			}
			for _, p := range [2]*wdm.Semilightpath{c.Primary, c.Backup} {
				if err := check.PathAvailable(net, p, s, d); err != nil {
					t.Fatalf("%s %d->%d: %v", where, s, d, err)
				}
				for _, h := range p.Hops {
					if load := net.Link(h.Link).Load(); !(load < c.Threshold) {
						t.Fatalf("%s %d->%d: hop on link %d has load %v, not below ϑ = %v", where, s, d, h.Link, load, c.Threshold)
					}
				}
			}
			if err := check.EdgeDisjoint(c.Primary, c.Backup); err != nil {
				t.Fatalf("%s %d->%d: %v", where, s, d, err)
			}
			cp, cb := check.PathCost(net, c.Primary), check.PathCost(net, c.Backup)
			if !check.ApproxEq(cp+cb, c.Cost) || cp > cb+1e-9 {
				t.Fatalf("%s %d->%d: cost %v, recomputed %v + %v", where, s, d, c.Cost, cp, cb)
			}
			if got := check.PairLoad(net, c.Primary, c.Backup); math.Abs(got-c.PathLoad) > 1e-12 {
				t.Fatalf("%s %d->%d: path load %v, recomputed %v", where, s, d, c.PathLoad, got)
			}
		}
	}
	return hits, worst
}

// quarantineRandomly fails each link of net through a connection table with
// probability p: conns.Table.Fail marks a down link's free channels used.
func quarantineRandomly(rng *rand.Rand, net *wdm.Network, p float64) {
	live := conns.New[struct{}](net)
	for id := 0; id < net.Links(); id++ {
		if rng.Float64() < p {
			live.Fail(id)
		}
	}
}

// FuzzMinLoadCostTier runs checkMinLoadCostTier on one random network per
// input: boundNet's non-uniform costs, partial installed sets, every
// converter kind and random occupancy, plus a random share of failed links.
func FuzzMinLoadCostTier(f *testing.F) {
	f.Add(int64(1), uint8(4))
	f.Add(int64(7), uint8(2))
	f.Add(int64(-3), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, k uint8) {
		rng := rand.New(rand.NewSource(seed))
		net := boundNet(rng)
		quarantineRandomly(rng, net, 0.2*rng.Float64())
		checkMinLoadCostTier(t, net, 1+int(k%4), fmt.Sprintf("seed %d", seed))
	})
}

// TestMinLoadCostTierRules runs the checks of FuzzMinLoadCostTier over a
// fixed set of random networks and NSFNET W=8 across loads, and requires
// the tier to answer some requests.
func TestMinLoadCostTierRules(t *testing.T) {
	hits, worst := 0, 0.0
	add := func(h int, w float64) { hits, worst = hits+h, max(worst, w) }
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		net := boundNet(rng)
		quarantineRandomly(rng, net, 0.2*rng.Float64())
		add(checkMinLoadCostTier(t, net, 1+rng.Intn(4), fmt.Sprintf("seed %d", seed)))
	}
	base := topo.NSFNET(topo.Config{W: 8})
	rng := rand.New(rand.NewSource(1))
	for _, p := range []float64{0, 0.3, 0.6, 0.9} {
		net := base.Clone()
		useRandomly(rng, net, p)
		add(checkMinLoadCostTier(t, net, 4, fmt.Sprintf("NSFNET load %.1f", p)))
	}
	if hits == 0 {
		t.Fatal("the tier answered no MinLoadCost request")
	}
	t.Logf("%d requests answered by the tier; worst tier/exact cost ratio %.3f", hits, worst)
}

// BenchmarkCandidateRouteNSFNET times the candidate tier warm: one
// ReuseResult router with a k=4 table routes ApproxMinCost over every ordered
// pair of NSFNET W=8, in a fixed state reached by admitting a seeded serial
// stream of requests. Nothing is admitted while timing, so every iteration
// prices the same state; hit/op is the share the tier answers without the
// exact fallback.
func BenchmarkCandidateRouteNSFNET(b *testing.B) {
	net := topo.NSFNET(topo.Config{W: 8})
	tab := NewCandidateTable(net, 4)
	live := conns.New[struct{}](net)
	warm := NewRouter(&Options{CandidateTable: tab})
	rng := rand.New(rand.NewSource(1))
	n := net.Nodes()
	for i := 0; i < 20; i++ {
		s, d := rng.Intn(n), rng.Intn(n)
		if s == d {
			continue
		}
		if res, ok := warm.ApproxMinCost(net, s, d); ok {
			if _, err := live.Admit(int64(i), s, d, res.Pair()); err != nil {
				b.Fatal(err)
			}
		}
	}
	var pairs [][2]int
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s != d {
				pairs = append(pairs, [2]int{s, d})
			}
		}
	}
	r := NewRouter(&Options{CandidateTable: tab, ReuseResult: true})
	for _, p := range pairs {
		r.ApproxMinCost(net, p[0], p[1])
	}
	hits := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		r.ApproxMinCost(net, p[0], p[1])
		if r.LastTier() == TierCandidate {
			hits++
		}
	}
	b.ReportMetric(float64(hits)/float64(b.N), "hit/op")
}
