package wdm

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// lineNet builds 0 -> 1 -> 2 with all W wavelengths at the given uniform
// cost per link and full conversion at conversion cost cc.
func lineNet(w int, linkCost, convCost float64) *Network {
	g := NewNetwork(3, w)
	g.AddUniformLink(0, 1, linkCost)
	g.AddUniformLink(1, 2, linkCost)
	g.SetAllConverters(NewFullConverter(w, convCost))
	return g
}

func TestNewNetworkValidation(t *testing.T) {
	for _, c := range []struct{ n, w int }{{-1, 2}, {3, 0}, {3, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewNetwork(%d,%d) should panic", c.n, c.w)
				}
			}()
			NewNetwork(c.n, c.w)
		}()
	}
}

func TestAddLinkBasics(t *testing.T) {
	g := NewNetwork(3, 4)
	id := g.AddLink(0, 1, []Wavelength{0, 2}, []float64{1.5, 2.5})
	l := g.Link(id)
	if l.From != 0 || l.To != 1 || l.ID != id {
		t.Fatalf("link = %+v", l)
	}
	if l.N() != 2 || l.U() != 0 {
		t.Fatalf("N=%d U=%d", l.N(), l.U())
	}
	if l.Cost(0) != 1.5 || l.Cost(2) != 2.5 {
		t.Fatal("costs wrong")
	}
	if !math.IsInf(l.Cost(1), 1) {
		t.Fatal("uninstalled wavelength should cost +Inf")
	}
	if len(g.Out(0)) != 1 || len(g.In(1)) != 1 {
		t.Fatal("adjacency wrong")
	}
	if g.Nodes() != 3 || g.W() != 4 || g.Links() != 1 {
		t.Fatal("dimensions wrong")
	}
}

func TestAddLinkPanics(t *testing.T) {
	g := NewNetwork(2, 2)
	cases := map[string]func(){
		"badNode":    func() { g.AddLink(0, 5, []Wavelength{0}, []float64{1}) },
		"badLambda":  func() { g.AddLink(0, 1, []Wavelength{7}, []float64{1}) },
		"negCost":    func() { g.AddLink(0, 1, []Wavelength{0}, []float64{-1}) },
		"lenMismtch": func() { g.AddLink(0, 1, []Wavelength{0, 1}, []float64{1}) },
		"infCost":    func() { g.AddLink(0, 1, []Wavelength{0}, []float64{math.Inf(1)}) },
	}
	for name, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestUseReleaseAndLoad(t *testing.T) {
	g := NewNetwork(2, 4)
	id := g.AddUniformLink(0, 1, 1)
	l := g.Link(id)
	if l.Load() != 0 {
		t.Fatalf("initial load = %g", l.Load())
	}
	if err := g.Use(id, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.Use(id, 1); err == nil {
		t.Fatal("double Use should fail")
	}
	if l.U() != 1 || l.Load() != 0.25 {
		t.Fatalf("U=%d load=%g", l.U(), l.Load())
	}
	if g.NetworkLoad() != 0.25 {
		t.Fatalf("NetworkLoad = %g", g.NetworkLoad())
	}
	if err := g.Release(id, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.Release(id, 1); err == nil {
		t.Fatal("double Release should fail")
	}
	if err := g.Use(id, 9); err == nil {
		t.Fatal("Use of out-of-set wavelength should fail")
	}
}

func TestMeanCosts(t *testing.T) {
	g := NewNetwork(2, 3)
	id := g.AddLink(0, 1, []Wavelength{0, 1, 2}, []float64{1, 2, 6})
	l := g.Link(id)
	if got := l.MeanAvailCost(); got != 3 {
		t.Fatalf("MeanAvailCost = %g, want 3", got)
	}
	if got := l.MeanInstalledCost(); got != 3 {
		t.Fatalf("MeanInstalledCost = %g, want 3", got)
	}
	// Take λ2 (cost 6): avail mean = 1.5, installed mean = 3/3 = 1.
	if err := g.Use(id, 2); err != nil {
		t.Fatal(err)
	}
	if got := l.MeanAvailCost(); got != 1.5 {
		t.Fatalf("MeanAvailCost = %g, want 1.5", got)
	}
	if got := l.MeanInstalledCost(); got != 1 {
		t.Fatalf("MeanInstalledCost = %g, want 1", got)
	}
	// Exhaust the link: mean costs are +Inf.
	g.Use(id, 0)
	g.Use(id, 1)
	if !math.IsInf(l.MeanAvailCost(), 1) {
		t.Fatal("exhausted link should have +Inf mean avail cost")
	}
}

func TestConverters(t *testing.T) {
	fc := NewFullConverter(4, 2.5)
	if !fc.Allowed(0, 3) || fc.Cost(0, 3) != 2.5 || fc.Cost(1, 1) != 0 {
		t.Fatal("FullConverter wrong")
	}
	nc := NoConverter{}
	if nc.Allowed(0, 1) || !nc.Allowed(2, 2) || nc.Cost(2, 2) != 0 {
		t.Fatal("NoConverter wrong")
	}
	rc := NewRangeConverter(1, 3)
	if !rc.Allowed(1, 2) || rc.Allowed(0, 2) || rc.Cost(1, 2) != 3 || rc.Cost(2, 1) != 3 {
		t.Fatal("RangeConverter wrong")
	}
	mc := NewMatrixConverter(2, [][]float64{{0, 5}, {-1, 0}})
	if !mc.Allowed(0, 1) || mc.Allowed(1, 0) || mc.Cost(0, 1) != 5 {
		t.Fatal("MatrixConverter wrong")
	}
}

func TestMatrixConverterValidation(t *testing.T) {
	cases := map[string]func(){
		"rows":     func() { NewMatrixConverter(2, [][]float64{{0, 1}}) },
		"cols":     func() { NewMatrixConverter(2, [][]float64{{0}, {1, 0}}) },
		"diagonal": func() { NewMatrixConverter(2, [][]float64{{1, 1}, {1, 0}}) },
	}
	for name, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestConvCost(t *testing.T) {
	g := NewNetwork(2, 3)
	g.SetConverter(0, NoConverter{})
	if g.ConvCost(0, 1, 1) != 0 {
		t.Fatal("identity conversion should be free")
	}
	if !math.IsInf(g.ConvCost(0, 0, 1), 1) {
		t.Fatal("disallowed conversion should be +Inf")
	}
	g.SetConverter(0, NewFullConverter(3, 4))
	if g.ConvCost(0, 0, 1) != 4 {
		t.Fatal("full conversion cost wrong")
	}
}

func TestSemilightpathCost(t *testing.T) {
	g := lineNet(2, 3, 1.5)
	p := &Semilightpath{Hops: []Hop{{Link: 0, Wavelength: 0}, {Link: 1, Wavelength: 1}}}
	if got := p.LinkCost(g); got != 6 {
		t.Fatalf("LinkCost = %g", got)
	}
	if got := p.ConvCost(g); got != 1.5 {
		t.Fatalf("ConvCost = %g", got)
	}
	if got := p.Cost(g); got != 7.5 {
		t.Fatalf("Cost = %g", got)
	}
	// No conversion when wavelengths match.
	q := &Semilightpath{Hops: []Hop{{0, 1}, {1, 1}}}
	if got := q.Cost(g); got != 6 {
		t.Fatalf("continuity Cost = %g", got)
	}
}

func TestSemilightpathValidate(t *testing.T) {
	g := lineNet(2, 1, 1)
	good := &Semilightpath{Hops: []Hop{{0, 0}, {1, 1}}}
	if err := good.Validate(g, 0, 2); err != nil {
		t.Fatal(err)
	}
	if err := good.ValidateAvailable(g, 0, 2); err != nil {
		t.Fatal(err)
	}
	if err := good.Validate(g, 0, 1); err == nil {
		t.Fatal("wrong destination accepted")
	}
	if err := good.Validate(g, 1, 2); err == nil {
		t.Fatal("wrong source accepted")
	}
	empty := &Semilightpath{}
	if err := empty.Validate(g, 0, 0); err == nil {
		t.Fatal("empty path accepted")
	}
	disconnected := &Semilightpath{Hops: []Hop{{1, 0}, {0, 0}}}
	if err := disconnected.Validate(g, 1, 1); err == nil {
		t.Fatal("disconnected walk accepted")
	}
	badLambda := &Semilightpath{Hops: []Hop{{0, 5}}}
	if err := badLambda.Validate(g, 0, 1); err == nil {
		t.Fatal("out-of-range wavelength accepted")
	}
	// Forbid conversion at node 1: mixed-wavelength path must fail.
	g.SetConverter(1, NoConverter{})
	if err := good.Validate(g, 0, 2); err == nil {
		t.Fatal("disallowed conversion accepted")
	}
	// Availability check.
	g.SetConverter(1, NewFullConverter(2, 1))
	g.Use(0, 0)
	if err := good.ValidateAvailable(g, 0, 2); err == nil {
		t.Fatal("in-use wavelength accepted by ValidateAvailable")
	}
	if err := good.Validate(g, 0, 2); err != nil {
		t.Fatalf("Validate should ignore availability: %v", err)
	}
}

func TestSemilightpathAccessors(t *testing.T) {
	g := lineNet(2, 1, 1)
	p := &Semilightpath{Hops: []Hop{{0, 0}, {1, 1}}}
	if p.Len() != 2 || p.Source(g) != 0 {
		t.Fatal("accessors wrong")
	}
	nodes := p.Nodes(g)
	if len(nodes) != 3 || nodes[0] != 0 || nodes[1] != 1 || nodes[2] != 2 {
		t.Fatalf("Nodes = %v", nodes)
	}
	if (&Semilightpath{}).Nodes(g) != nil {
		t.Fatal("empty path Nodes should be nil")
	}
	if s := p.Format(g); s == "" || s == "<empty>" {
		t.Fatalf("Format = %q", s)
	}
	if s := p.String(); s == "" {
		t.Fatal("String empty")
	}
	if s := (&Semilightpath{}).String(); s != "<empty>" {
		t.Fatalf("empty String = %q", s)
	}
}

func TestEdgeDisjoint(t *testing.T) {
	a := &Semilightpath{Hops: []Hop{{0, 0}, {1, 0}}}
	b := &Semilightpath{Hops: []Hop{{2, 0}, {3, 0}}}
	c := &Semilightpath{Hops: []Hop{{1, 1}, {4, 0}}}
	if !a.EdgeDisjoint(b) {
		t.Fatal("a,b should be disjoint")
	}
	if a.EdgeDisjoint(c) {
		t.Fatal("a,c share link 1 (different λ does not matter)")
	}
}

func TestReserveReleasePath(t *testing.T) {
	g := lineNet(2, 1, 1)
	p := &Semilightpath{Hops: []Hop{{0, 0}, {1, 0}}}
	if err := g.Reserve(p); err != nil {
		t.Fatal(err)
	}
	if g.Link(0).U() != 1 || g.Link(1).U() != 1 {
		t.Fatal("reserve did not lock wavelengths")
	}
	// Conflicting reservation rolls back atomically.
	q := &Semilightpath{Hops: []Hop{{0, 1}, {1, 0}}}
	if err := g.Reserve(q); err == nil {
		t.Fatal("conflicting reserve should fail")
	}
	if !g.Link(0).HasAvail(1) {
		t.Fatal("failed reserve did not roll back hop 0")
	}
	if err := g.ReleasePath(p); err != nil {
		t.Fatal(err)
	}
	if g.Link(0).U() != 0 || g.Link(1).U() != 0 {
		t.Fatal("release did not unlock")
	}
	if err := g.ReleasePath(p); err == nil {
		t.Fatal("double release should fail")
	}
}

func TestCloneAndReset(t *testing.T) {
	g := lineNet(3, 1, 1)
	g.Use(0, 0)
	c := g.Clone()
	if c.Link(0).U() != 1 {
		t.Fatal("clone lost availability state")
	}
	c.Use(0, 1)
	if g.Link(0).U() != 1 {
		t.Fatal("clone not independent")
	}
	releaseAll(t, g)
	if g.Link(0).U() != 0 || g.NetworkLoad() != 0 {
		t.Fatal("releasing every wavelength left load behind")
	}
	if g.TotalAvailable() != 6 {
		t.Fatalf("TotalAvailable = %d, want 6", g.TotalAvailable())
	}
}

func TestMaxDegree(t *testing.T) {
	g := NewNetwork(3, 1)
	g.AddUniformLink(0, 1, 1)
	g.AddUniformLink(0, 2, 1)
	g.AddUniformLink(1, 0, 1)
	if g.MaxDegree() != 3 {
		t.Fatalf("MaxDegree = %d, want 3", g.MaxDegree())
	}
}

func TestAddUniformPair(t *testing.T) {
	g := NewNetwork(2, 2)
	ab, ba := g.AddUniformPair(0, 1, 2.5)
	if g.Link(ab).From != 0 || g.Link(ba).From != 1 {
		t.Fatal("pair directions wrong")
	}
	if g.Link(ab).Cost(0) != 2.5 || g.Link(ba).Cost(1) != 2.5 {
		t.Fatal("pair costs wrong")
	}
}

// Property: Use/Release round-trips preserve availability exactly; network
// load is always U/N of the most loaded link.
func TestQuickUseReleaseInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const w = 8
		g := NewNetwork(4, w)
		for i := 0; i < 6; i++ {
			g.AddUniformLink(rng.Intn(4), rng.Intn(4), 1+rng.Float64())
		}
		type pair struct{ link, lam int }
		var held []pair
		for op := 0; op < 100; op++ {
			if rng.Intn(2) == 0 || len(held) == 0 {
				l, lam := rng.Intn(g.Links()), rng.Intn(w)
				if g.Use(l, lam) == nil {
					held = append(held, pair{l, lam})
				}
			} else {
				i := rng.Intn(len(held))
				p := held[i]
				if g.Release(p.link, p.lam) != nil {
					return false
				}
				held = append(held[:i], held[i+1:]...)
			}
		}
		// Verify bookkeeping: per-link U matches held count.
		counts := make(map[int]int)
		for _, p := range held {
			counts[p.link]++
		}
		for id := 0; id < g.Links(); id++ {
			if g.Link(id).U() != counts[id] {
				return false
			}
		}
		// Release everything; availability must be full again.
		for _, p := range held {
			if g.Release(p.link, p.lam) != nil {
				return false
			}
		}
		return g.TotalAvailable() == g.Links()*w && g.NetworkLoad() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: path cost decomposes as LinkCost + ConvCost and is monotone in
// the number of hops for uniform networks.
func TestQuickCostDecomposition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := 2 + rng.Intn(3)
		n := 4
		g := NewNetwork(n, w)
		for v := 0; v+1 < n; v++ {
			g.AddUniformLink(v, v+1, 1+rng.Float64()*3)
		}
		g.SetAllConverters(NewFullConverter(w, rng.Float64()))
		hops := make([]Hop, n-1)
		for i := range hops {
			hops[i] = Hop{Link: i, Wavelength: rng.Intn(w)}
		}
		p := &Semilightpath{Hops: hops}
		if err := p.Validate(g, 0, n-1); err != nil {
			return false
		}
		return math.Abs(p.Cost(g)-(p.LinkCost(g)+p.ConvCost(g))) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
