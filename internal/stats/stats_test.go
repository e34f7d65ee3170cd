package stats

import (
	"math"
	"strings"
	"testing"
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
