package main

import (
	"math"
	"testing"
	"time"
)

func TestNearestRank(t *testing.T) {
	tens := []uint32{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	thousand := make([]uint32, 1000)
	for i := range thousand {
		thousand[i] = uint32(i + 1)
	}
	for _, tc := range []struct {
		sorted []uint32
		q      float64
		want   float64
	}{
		{tens, 0.5, 50},  // rank ceil(5) = 5
		{tens, 0.51, 60}, // rank ceil(5.1) = 6
		{tens, 0.99, 100},
		{tens, 0.0, 10}, // rank clamps to 1
		{tens, 1.0, 100},
		{[]uint32{7}, 0.999, 7},
		{thousand, 0.5, 500},
		{thousand, 0.99, 990},
		{thousand, 0.999, 999},
	} {
		if got := nearestRank(tc.sorted, tc.q); got != tc.want {
			t.Errorf("nearestRank(n=%d, %v) = %v, want %v", len(tc.sorted), tc.q, got, tc.want)
		}
	}
}

// TestWindowsAtReferenceSpeed: each window's times and rate are stated at
// the reference speed by its own host speed, and an offered workload's, set
// by its schedule, are left as measured.
func TestWindowsAtReferenceSpeed(t *testing.T) {
	filled := func(latency time.Duration, n int, speed float64) window {
		var w window
		for i := 0; i < n; i++ {
			w.lat.add(latency)
		}
		w.dur, w.speed = time.Second, speed
		w.seal()
		return w
	}
	for _, offered := range []bool{false, true} {
		o := &outcome{offered: offered, timedOps: 1, provisions: 1, accepted: 1, setupS: 1,
			// The host ran at half and at twice the reference speed: 100 µs
			// there is 50 µs and 200 µs at the reference.
			windows: []window{filled(100*time.Microsecond, 1000, 0.5), filled(100*time.Microsecond, 1000, 2), filled(100*time.Microsecond, 1000, 1)}}
		m, err := o.endToEndMetrics()
		if err != nil {
			t.Fatal(err)
		}
		// Medians of 50, 200 and 100 µs; of 2000, 500 and 1000 ops/s at the
		// reference (or 100 µs and 1000 ops/s three times as offered); of
		// the speeds.
		if m["latency_p50_us"] != 100 || m["ops_per_s"] != 1000 || m["host_speed"] != 1 {
			t.Errorf("offered %v: p50 %v, ops/s %v, host speed %v; want 100, 1000, 1", offered, m["latency_p50_us"], m["ops_per_s"], m["host_speed"])
		}
		o.windows = o.windows[:2] // medians of two windows are the means of their values
		m, _ = o.endToEndMetrics()
		if want := map[bool]float64{false: 125, true: 100}[offered]; m["latency_p50_us"] != want {
			t.Errorf("offered %v: p50 %v over two windows, want %v", offered, m["latency_p50_us"], want)
		}
		if want := map[bool]float64{false: 1250, true: 1000}[offered]; m["ops_per_s"] != want {
			t.Errorf("offered %v: ops/s %v over two windows, want %v", offered, m["ops_per_s"], want)
		}
	}
}

// TestProbeHost: a probe times probeRounds rounds on each worker and yields a
// finite, positive speed.
func TestProbeHost(t *testing.T) {
	for workers := 1; workers <= workloadGOMAXPROCS; workers++ {
		rounds := probeHost(workers)
		if len(rounds) != probeRounds*workers {
			t.Fatalf("%d workers: %d rounds, want %d", workers, len(rounds), probeRounds*workers)
		}
		if s := hostSpeed(rounds); !(s > 0) || math.IsInf(s, 0) {
			t.Fatalf("%d workers: host speed %v", workers, s)
		}
	}
}

func TestLatenciesKeepEverySample(t *testing.T) {
	var l latencies
	n := chunkLen + 10 // crosses a chunk boundary
	for i := n; i > 0; i-- {
		l.add(time.Duration(i))
	}
	var m latencies
	m.merge(&l)
	s := m.sorted()
	if len(s) != n || s[0] != 1 || s[n-1] != uint32(n) {
		t.Fatalf("sorted: len %d, first %d, last %d; want %d samples 1..%d", len(s), s[0], s[n-1], n, n)
	}
	l.add(-time.Second)
	l.add(10 * time.Second)
	s = l.sorted()
	if s[0] != 0 || s[len(s)-1] != 1<<32-1 {
		t.Fatalf("out-of-range samples stored as %d and %d; want clamped to 0 and 2^32-1", s[0], s[len(s)-1])
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(vs, n=4) returns, which the spread rule is stated in.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		vs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{4, 1, 3, 2}, 1.25, 3.75},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
	} {
		q1, q3 := quartiles(tc.vs)
		if q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.vs, q1, q3, tc.q1, tc.q3)
		}
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}
