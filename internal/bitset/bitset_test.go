package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	s := New(130)
	if s.Cap() != 130 {
		t.Fatalf("Cap() = %d, want 130", s.Cap())
	}
	if !s.Empty() {
		t.Fatal("new set should be empty")
	}
	if s.Count() != 0 {
		t.Fatalf("Count() = %d, want 0", s.Count())
	}
	if s.Min() != -1 {
		t.Fatalf("Min() = %d, want -1", s.Min())
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) should panic")
		}
	}()
	New(-1)
}

func TestAddRemoveContains(t *testing.T) {
	s := New(200)
	idx := []int{0, 1, 63, 64, 65, 127, 128, 199}
	for _, i := range idx {
		s.Add(i)
	}
	for _, i := range idx {
		if !s.Contains(i) {
			t.Errorf("Contains(%d) = false after Add", i)
		}
	}
	if s.Count() != len(idx) {
		t.Fatalf("Count() = %d, want %d", s.Count(), len(idx))
	}
	s.Remove(64)
	if s.Contains(64) {
		t.Error("Contains(64) = true after Remove")
	}
	if s.Count() != len(idx)-1 {
		t.Fatalf("Count() = %d, want %d", s.Count(), len(idx)-1)
	}
	// Removing an absent element is a no-op.
	s.Remove(64)
	if s.Count() != len(idx)-1 {
		t.Fatal("double Remove changed count")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	s := New(10)
	for name, fn := range map[string]func(){
		"Add":      func() { s.Add(10) },
		"AddNeg":   func() { s.Add(-1) },
		"Remove":   func() { s.Remove(10) },
		"Contains": func() { s.Contains(10) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s out of range should panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestNewFull(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 100, 128} {
		s := NewFull(n)
		if s.Count() != n {
			t.Errorf("NewFull(%d).Count() = %d", n, s.Count())
		}
	}
}

func TestFromSlice(t *testing.T) {
	s := FromSlice(16, []int{3, 1, 4, 1, 5, 9, 2, 6})
	want := []int{1, 2, 3, 4, 5, 6, 9}
	got := s.Slice()
	if len(got) != len(want) {
		t.Fatalf("Slice() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Slice() = %v, want %v", got, want)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	s := FromSlice(70, []int{0, 69})
	c := s.Clone()
	c.Add(30)
	if s.Contains(30) {
		t.Fatal("Clone is not independent")
	}
	if !c.Contains(0) || !c.Contains(69) {
		t.Fatal("Clone lost elements")
	}
}

func TestCopyFrom(t *testing.T) {
	s := FromSlice(70, []int{1, 2, 3})
	d := New(70)
	d.CopyFrom(s)
	if !d.Equal(s) {
		t.Fatal("CopyFrom did not copy")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("CopyFrom with capacity mismatch should panic")
		}
	}()
	d.CopyFrom(New(71))
}

func TestClearFill(t *testing.T) {
	s := FromSlice(100, []int{5, 50, 99})
	s.Clear()
	if !s.Empty() {
		t.Fatal("Clear left elements")
	}
	s.Fill()
	if s.Count() != 100 {
		t.Fatalf("Fill Count = %d, want 100", s.Count())
	}
}

func TestSetOps(t *testing.T) {
	a := FromSlice(70, []int{1, 2, 3, 64})
	b := FromSlice(70, []int{2, 3, 4, 65})

	if got := a.IntersectCount(b); got != 2 {
		t.Errorf("IntersectCount = %d, want 2", got)
	}
	if !a.Intersects(b) {
		t.Error("Intersects = false, want true")
	}

	u := a.Clone()
	u.UnionWith(b)
	if u.Count() != 6 {
		t.Errorf("union Count = %d, want 6", u.Count())
	}

	i := a.Clone()
	i.IntersectWith(b)
	if !i.Equal(FromSlice(70, []int{2, 3})) {
		t.Errorf("intersection = %v", i)
	}

	d := a.Clone()
	d.DifferenceWith(b)
	if !d.Equal(FromSlice(70, []int{1, 64})) {
		t.Errorf("difference = %v", d)
	}

	if !i.SubsetOf(a) || !i.SubsetOf(b) {
		t.Error("intersection should be subset of both")
	}
	if a.SubsetOf(b) {
		t.Error("a should not be subset of b")
	}

	disjointA := FromSlice(70, []int{1})
	disjointB := FromSlice(70, []int{2})
	if disjointA.Intersects(disjointB) {
		t.Error("disjoint sets should not intersect")
	}
}

func TestEqual(t *testing.T) {
	a := FromSlice(10, []int{1, 2})
	b := FromSlice(10, []int{1, 2})
	c := FromSlice(11, []int{1, 2})
	if !a.Equal(b) {
		t.Error("equal sets reported unequal")
	}
	if a.Equal(c) {
		t.Error("different capacities should be unequal")
	}
}

func TestMinNextAfter(t *testing.T) {
	s := FromSlice(200, []int{5, 64, 190})
	if s.Min() != 5 {
		t.Fatalf("Min = %d, want 5", s.Min())
	}
	order := []int{5, 64, 190}
	i := -1
	for _, want := range order {
		i = s.NextAfter(i)
		if i != want {
			t.Fatalf("NextAfter chain got %d, want %d", i, want)
		}
	}
	if next := s.NextAfter(i); next != -1 {
		t.Fatalf("NextAfter(last) = %d, want -1", next)
	}
	if next := s.NextAfter(300); next != -1 {
		t.Fatalf("NextAfter(beyond cap) = %d, want -1", next)
	}
}

func TestForEachEarlyStop(t *testing.T) {
	s := FromSlice(10, []int{1, 3, 5, 7})
	var seen []int
	s.ForEach(func(i int) bool {
		seen = append(seen, i)
		return len(seen) < 2
	})
	if len(seen) != 2 || seen[0] != 1 || seen[1] != 3 {
		t.Fatalf("early stop saw %v", seen)
	}
}

func TestString(t *testing.T) {
	if got := FromSlice(10, []int{1, 3}).String(); got != "{1, 3}" {
		t.Errorf("String = %q", got)
	}
	if got := New(10).String(); got != "{}" {
		t.Errorf("empty String = %q", got)
	}
}

// Property: Slice round-trips through FromSlice.
func TestQuickRoundTrip(t *testing.T) {
	f := func(raw []uint8) bool {
		const n = 256
		s := New(n)
		for _, r := range raw {
			s.Add(int(r))
		}
		back := FromSlice(n, s.Slice())
		return back.Equal(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: |A ∪ B| + |A ∩ B| == |A| + |B| (inclusion–exclusion).
func TestQuickInclusionExclusion(t *testing.T) {
	f := func(ra, rb []uint8) bool {
		const n = 256
		a, b := New(n), New(n)
		for _, r := range ra {
			a.Add(int(r))
		}
		for _, r := range rb {
			b.Add(int(r))
		}
		u := a.Clone()
		u.UnionWith(b)
		return u.Count()+a.IntersectCount(b) == a.Count()+b.Count()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: DifferenceWith(b) then IntersectCount(b) == 0.
func TestQuickDifferenceDisjoint(t *testing.T) {
	f := func(ra, rb []uint8) bool {
		const n = 256
		a, b := New(n), New(n)
		for _, r := range ra {
			a.Add(int(r))
		}
		for _, r := range rb {
			b.Add(int(r))
		}
		d := a.Clone()
		d.DifferenceWith(b)
		return d.IntersectCount(b) == 0 && d.SubsetOf(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandomizedAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 150
	s := New(n)
	ref := map[int]bool{}
	for op := 0; op < 5000; op++ {
		i := rng.Intn(n)
		switch rng.Intn(3) {
		case 0:
			s.Add(i)
			ref[i] = true
		case 1:
			s.Remove(i)
			delete(ref, i)
		case 2:
			if s.Contains(i) != ref[i] {
				t.Fatalf("op %d: Contains(%d) mismatch", op, i)
			}
		}
	}
	if s.Count() != len(ref) {
		t.Fatalf("final Count = %d, want %d", s.Count(), len(ref))
	}
	for i := range ref {
		if !s.Contains(i) {
			t.Fatalf("missing %d", i)
		}
	}
}

func BenchmarkIntersectCount(b *testing.B) {
	a := NewFull(1024)
	c := NewFull(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = a.IntersectCount(c)
	}
}

func BenchmarkForEach(b *testing.B) {
	s := NewFull(1024)
	b.ReportAllocs()
	sum := 0
	for i := 0; i < b.N; i++ {
		s.ForEach(func(i int) bool { sum += i; return true })
	}
	_ = sum
}
