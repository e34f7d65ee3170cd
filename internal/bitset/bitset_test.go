package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	s := New(130)
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

// of returns a set of capacity n holding exactly idx.
func of(n int, idx ...int) *Set {
	s := New(n)
	for _, i := range idx {
		s.Add(i)
	}
	return s
}

// full returns a set of capacity n holding every index.
func full(n int) *Set {
	s := New(n)
	for i := 0; i < n; i++ {
		s.Add(i)
	}
	return s
}

func TestCloneIndependence(t *testing.T) {
	s := of(70, 0, 69)
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
	s := of(70, 1, 2, 3, 69)
	d := of(70, 4)
	d.CopyFrom(s)
	if got := d.String(); got != "{1, 2, 3, 69}" {
		t.Fatalf("CopyFrom copied %s", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("CopyFrom with capacity mismatch should panic")
		}
	}()
	d.CopyFrom(New(71))
}

func TestSetOps(t *testing.T) {
	a := of(70, 1, 2, 3, 64)
	b := of(70, 2, 3, 4, 65)

	if got := a.IntersectCount(b); got != 2 {
		t.Errorf("IntersectCount = %d, want 2", got)
	}
	if !a.Intersects(b) {
		t.Error("Intersects = false, want true")
	}
	if got := of(70, 64).IntersectCount(b); got != 0 {
		t.Errorf("IntersectCount across words = %d, want 0", got)
	}
	if of(70, 1).Intersects(of(70, 2)) {
		t.Error("disjoint sets should not intersect")
	}
	for name, fn := range map[string]func(){
		"IntersectCount": func() { a.IntersectCount(New(71)) },
		"Intersects":     func() { a.Intersects(New(71)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with capacity mismatch should panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestMinNextAfter(t *testing.T) {
	s := of(200, 5, 64, 190)
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
	s := of(10, 1, 3, 5, 7)
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
	if got := of(10, 1, 3).String(); got != "{1, 3}" {
		t.Errorf("String = %q", got)
	}
	if got := New(10).String(); got != "{}" {
		t.Errorf("empty String = %q", got)
	}
}

// Property: Slice round-trips through Add.
func TestQuickRoundTrip(t *testing.T) {
	f := func(raw []uint8) bool {
		const n = 256
		s := New(n)
		for _, r := range raw {
			s.Add(int(r))
		}
		back := of(n, s.Slice()...)
		return back.IntersectCount(s) == s.Count() && back.Count() == s.Count()
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
		b.ForEach(func(i int) bool { u.Add(i); return true })
		return u.Count()+a.IntersectCount(b) == a.Count()+b.Count()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: removing b's elements from a leaves a set disjoint from b and
// inside a.
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
		b.ForEach(func(i int) bool { d.Remove(i); return true })
		return d.IntersectCount(b) == 0 && d.IntersectCount(a) == d.Count()
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
	a := full(1024)
	c := full(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = a.IntersectCount(c)
	}
}

func BenchmarkForEach(b *testing.B) {
	s := full(1024)
	b.ReportAllocs()
	sum := 0
	for i := 0; i < b.N; i++ {
		s.ForEach(func(i int) bool { sum += i; return true })
	}
	_ = sum
}
