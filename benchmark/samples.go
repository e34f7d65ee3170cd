package main

import (
	"math"
	"slices"
	"time"
)

// chunkLen is the size of one latency chunk. Samples grow by whole chunks,
// never by copying, so keeping every sample adds only 4 bytes per op to the
// resident set the rss_mb metric reports.
const chunkLen = 1 << 16

// latencies keeps every per-op latency in nanoseconds. Quantiles are exact
// nearest-rank values over all samples, not histogram bucket bounds.
type latencies struct {
	chunks [][]uint32
}

func (l *latencies) add(d time.Duration) {
	ns := d.Nanoseconds()
	switch {
	case ns < 0:
		ns = 0
	case ns > math.MaxUint32:
		ns = math.MaxUint32 // 4.29 s: far beyond any latency a passing run sees
	}
	n := len(l.chunks)
	if n == 0 || len(l.chunks[n-1]) == chunkLen {
		l.chunks = append(l.chunks, make([]uint32, 0, chunkLen))
		n++
	}
	l.chunks[n-1] = append(l.chunks[n-1], uint32(ns))
}

// merge adopts o's samples; o must not be added to afterwards.
func (l *latencies) merge(o *latencies) { l.chunks = append(l.chunks, o.chunks...) }

func (l *latencies) len() int {
	n := 0
	for _, c := range l.chunks {
		n += len(c)
	}
	return n
}

// sorted returns all samples in ascending order.
func (l *latencies) sorted() []uint32 {
	out := make([]uint32, 0, l.len())
	for _, c := range l.chunks {
		out = append(out, c...)
	}
	slices.Sort(out)
	return out
}

// nearestRank returns the q-quantile of ascending samples by the
// nearest-rank rule: the smallest sample with at least q·n samples at or
// below it.
func nearestRank(sorted []uint32, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q * float64(n)))
	rank = max(1, min(rank, n))
	return float64(sorted[rank-1])
}

// median returns the median of vs (the mean of the middle two for even n).
func median(vs []float64) float64 {
	s := slices.Clone(vs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of vs the way Python's
// statistics.quantiles(vs, n=4) does (the default "exclusive" method), so
// spreads computed here match those computed from the same runs elsewhere.
func quartiles(vs []float64) (q1, q3 float64) {
	s := slices.Clone(vs)
	slices.Sort(s)
	ld := len(s)
	if ld == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := ld + 1
		j := max(1, min(i*m/4, ld-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}
