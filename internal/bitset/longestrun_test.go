package bitset

import (
	"math/rand"
	"testing"
)

// longestRunNaive is the bit-at-a-time reference implementation.
func longestRunNaive(s *Set) int {
	best, run := 0, 0
	for i := 0; i < s.n; i++ {
		if s.Contains(i) {
			run++
			if run > best {
				best = run
			}
		} else {
			run = 0
		}
	}
	return best
}

func TestLongestRunEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		set  *Set
		want int
	}{
		{"empty", New(128), 0},
		{"zero capacity", New(0), 0},
		{"single bit", of(128, 77), 1},
		{"full one word", full(64), 64},
		{"full two words", full(128), 128},
		{"full odd capacity", full(130), 130},
		{"run crossing word boundary", of(128, 62, 63, 64, 65, 66), 5},
		{"run ending at word boundary", of(128, 60, 61, 62, 63), 4},
		{"run starting at word boundary", of(128, 64, 65, 66), 3},
		{"full word bridging neighbours", of(192, 63, 64), 2},
		{"alternating", of(64, 0, 2, 4, 6, 8, 10), 1},
		{"two runs picks longer", of(64, 0, 1, 2, 10, 11, 12, 13, 14), 5},
	}
	// Full middle word flanked by trailing/leading ones: 1 + 64 + 1.
	span := New(192)
	for i := 63; i <= 128; i++ {
		span.Add(i)
	}
	cases = append(cases, struct {
		name string
		set  *Set
		want int
	}{"full word with flanks", span, 66})

	for _, c := range cases {
		if got := c.set.LongestRun(); got != c.want {
			t.Errorf("%s: LongestRun = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestLongestRunMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(300)
		s := New(n)
		// Mix densities so some trials have long runs, others sparse bits.
		p := rng.Float64()
		for i := 0; i < n; i++ {
			if rng.Float64() < p {
				s.Add(i)
			}
		}
		if got, want := s.LongestRun(), longestRunNaive(s); got != want {
			t.Fatalf("trial %d (n=%d): LongestRun = %d, naive = %d, set %v", trial, n, got, want, s)
		}
	}
}

func BenchmarkLongestRun(b *testing.B) {
	s := New(1024)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1024; i++ {
		if rng.Intn(3) > 0 {
			s.Add(i)
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.LongestRun()
	}
}
