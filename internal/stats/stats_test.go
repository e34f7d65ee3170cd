package stats

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestStreamMoments(t *testing.T) {
	var s Stream
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Fatalf("N = %d", s.N())
	}
	if s.Mean() != 5 {
		t.Fatalf("Mean = %g", s.Mean())
	}
	// Population variance is 4; sample variance = 32/7.
	if math.Abs(s.Variance()-32.0/7) > 1e-12 {
		t.Fatalf("Variance = %g", s.Variance())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("Min/Max = %g/%g", s.Min(), s.Max())
	}
	if s.CI95() <= 0 {
		t.Fatal("CI95 should be positive")
	}
	if !strings.Contains(s.String(), "n=8") {
		t.Fatalf("String = %q", s.String())
	}
}

func TestStreamEmptyAndSingle(t *testing.T) {
	var s Stream
	if s.Mean() != 0 || s.Variance() != 0 || s.CI95() != 0 {
		t.Fatal("empty stream should report zeros")
	}
	s.Add(3)
	if s.Mean() != 3 || s.Variance() != 0 || s.Min() != 3 || s.Max() != 3 {
		t.Fatal("single-sample stream wrong")
	}
}

func TestStreamMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var whole, a, b Stream
	for i := 0; i < 1000; i++ {
		x := rng.NormFloat64()*3 + 10
		whole.Add(x)
		if i%2 == 0 {
			a.Add(x)
		} else {
			b.Add(x)
		}
	}
	a.Merge(&b)
	if a.N() != whole.N() {
		t.Fatalf("merged N = %d", a.N())
	}
	if math.Abs(a.Mean()-whole.Mean()) > 1e-9 {
		t.Fatalf("merged mean %g vs %g", a.Mean(), whole.Mean())
	}
	if math.Abs(a.Variance()-whole.Variance()) > 1e-9 {
		t.Fatalf("merged variance %g vs %g", a.Variance(), whole.Variance())
	}
	if a.Min() != whole.Min() || a.Max() != whole.Max() {
		t.Fatal("merged min/max wrong")
	}
	// Merging into/from empty.
	var e1, e2 Stream
	e1.Merge(&a)
	if e1.N() != a.N() {
		t.Fatal("merge into empty failed")
	}
	e1.Merge(&e2)
	if e1.N() != a.N() {
		t.Fatal("merge from empty changed stream")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{3, 1, 2, 4, 5}
	if Quantile(xs, 0) != 1 || Quantile(xs, 1) != 5 {
		t.Fatal("extremes wrong")
	}
	if Quantile(xs, 0.5) != 3 {
		t.Fatalf("median = %g", Quantile(xs, 0.5))
	}
	if got := Quantile([]float64{1, 2}, 0.5); got != 1.5 {
		t.Fatalf("interpolated median = %g", got)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Fatal("empty quantile should be NaN")
	}
	// Input must not be reordered.
	if xs[0] != 3 {
		t.Fatal("Quantile mutated its input")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range q should panic")
		}
	}()
	Quantile(xs, 1.5)
}

func TestRatio(t *testing.T) {
	if Ratio(6, 3) != 2 {
		t.Fatal("Ratio wrong")
	}
	if !math.IsNaN(Ratio(1, 0)) {
		t.Fatal("zero denominator should be NaN")
	}
}

// Property: Merge(a, b) equals streaming all samples through one stream.
func TestQuickMergeEquivalence(t *testing.T) {
	f := func(as, bs []float64) bool {
		clean := func(xs []float64) []float64 {
			out := xs[:0]
			for _, x := range xs {
				if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e100 {
					out = append(out, x)
				}
			}
			return out
		}
		as, bs = clean(as), clean(bs)
		var a, b, whole Stream
		for _, x := range as {
			a.Add(x)
			whole.Add(x)
		}
		for _, x := range bs {
			b.Add(x)
			whole.Add(x)
		}
		a.Merge(&b)
		if a.N() != whole.N() {
			return false
		}
		if a.N() == 0 {
			return true
		}
		scale := 1 + math.Abs(whole.Mean())
		return math.Abs(a.Mean()-whole.Mean())/scale < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
