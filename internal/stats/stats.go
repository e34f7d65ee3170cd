// Package stats provides the small statistical toolkit the benchmark harness
// reports with: streaming moments (Welford), confidence intervals and
// quantiles.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Stream accumulates moments online (Welford's algorithm). The zero value is
// ready to use.
type Stream struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds a sample into the stream.
func (s *Stream) Add(x float64) {
	if s.n == 0 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	s.n++
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// N returns the sample count.
func (s *Stream) N() int { return s.n }

// Mean returns the sample mean (0 for an empty stream).
func (s *Stream) Mean() float64 { return s.mean }

// Min returns the smallest sample (0 for an empty stream).
func (s *Stream) Min() float64 { return s.min }

// Max returns the largest sample (0 for an empty stream).
func (s *Stream) Max() float64 { return s.max }

// Variance returns the unbiased sample variance.
func (s *Stream) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// StdDev returns the sample standard deviation.
func (s *Stream) StdDev() float64 { return math.Sqrt(s.Variance()) }

// CI95 returns the half-width of the normal-approximation 95% confidence
// interval of the mean.
func (s *Stream) CI95() float64 {
	if s.n < 2 {
		return 0
	}
	return 1.96 * s.StdDev() / math.Sqrt(float64(s.n))
}

// String renders "mean ± ci (n=…)".
func (s *Stream) String() string {
	return fmt.Sprintf("%.4g ± %.2g (n=%d)", s.Mean(), s.CI95(), s.n)
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of the samples, using linear
// interpolation. It sorts a copy of the input.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	if q < 0 || q > 1 {
		panic("stats: quantile out of range")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}
