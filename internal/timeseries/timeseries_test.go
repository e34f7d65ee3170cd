package timeseries

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/metrics"
	"repro/internal/stats"
)

func TestWindowSealingAndGaps(t *testing.T) {
	c := New(1.0)
	h := metrics.NewHistogram(nil)
	r, hit, miss := &metrics.Counter{}, &metrics.Counter{}, &metrics.Counter{}
	c.Histogram("lat", h)
	c.Rate("events", r)
	c.Ratio("blocking", hit, miss)
	g := c.Gauge("load")

	h.Observe(0.5)
	h.Observe(0.25)
	r.Inc()
	r.Inc()
	r.Inc()
	hit.Inc()
	miss.Inc()
	g.Set(0.3)
	g.Set(0.7)

	if len(c.Snapshots(0)) != 0 {
		t.Fatalf("Len before any seal = %d", len(c.Snapshots(0)))
	}
	// Advancing within the open window seals nothing.
	c.Advance(0.99)
	if len(c.Snapshots(0)) != 0 {
		t.Fatalf("Len after intra-window advance = %d", len(c.Snapshots(0)))
	}
	// Jumping over three window boundaries seals three windows: the active
	// one plus two empty gap windows, keeping the curve continuous.
	c.Advance(3.5)
	if len(c.Snapshots(0)) != 3 || c.TotalSealed() != 3 {
		t.Fatalf("Len=%d TotalSealed=%d, want 3, 3", len(c.Snapshots(0)), c.TotalSealed())
	}
	snaps := c.Snapshots(0)
	if snaps[0].Window != 0 || snaps[0].Start != 0 || snaps[0].End != 1 {
		t.Fatalf("first window = %+v", snaps[0])
	}

	hv, ok := snaps[0].Hist("lat")
	if !ok || hv.Count != 2 || hv.Min != 0.25 || hv.Max != 0.5 || hv.Sum != 0.75 {
		t.Fatalf("hist window 0 = %+v", hv)
	}
	rv, _ := snaps[0].RateOf("events")
	if rv.Count != 3 || rv.Rate != 3 {
		t.Fatalf("rate window 0 = %+v", rv)
	}
	bv, _ := snaps[0].RatioOf("blocking")
	if bv.Num != 1 || bv.Den != 2 || bv.Value != 0.5 {
		t.Fatalf("ratio window 0 = %+v", bv)
	}
	gv, _ := snaps[0].GaugeOf("load")
	if gv.Last != 0.7 || gv.Min != 0.3 || gv.Max != 0.7 || gv.Mean != 0.5 || gv.Samples != 2 {
		t.Fatalf("gauge window 0 = %+v", gv)
	}

	// Gap windows carry every registered series, all zero — an empty ratio
	// window must report 0, not NaN.
	for _, s := range snaps[1:] {
		hv, ok := s.Hist("lat")
		if !ok || hv.Count != 0 || hv.P99 != 0 {
			t.Fatalf("gap hist = %+v", hv)
		}
		bv, ok := s.RatioOf("blocking")
		if !ok || bv.Den != 0 || bv.Value != 0 {
			t.Fatalf("gap ratio = %+v, want zeros", bv)
		}
		rv, _ := s.RateOf("events")
		if rv.Count != 0 || rv.Rate != 0 {
			t.Fatalf("gap rate = %+v", rv)
		}
	}

	if lat := latest(c); lat == nil || lat.Window != 2 {
		t.Fatalf("Latest = %+v", lat)
	}

	// Advancing to an earlier time, or within the open window, seals
	// nothing: windows never move back.
	c.Advance(1.5)
	c.Advance(3.99)
	if c.TotalSealed() != 3 {
		t.Fatalf("TotalSealed = %d after backward advance, want 3", c.TotalSealed())
	}
}

func TestSealFlushesPartialWindow(t *testing.T) {
	c := New(10)
	r := &metrics.Counter{}
	c.Rate("n", r)
	r.Inc()
	c.Advance(4)
	if len(c.Snapshots(0)) != 0 {
		t.Fatal("window sealed early")
	}
	c.Seal()
	if len(c.Snapshots(0)) != 1 {
		t.Fatal("Seal did not flush the partial window")
	}
	rv, _ := latest(c).RateOf("n")
	if rv.Count != 1 {
		t.Fatalf("partial window lost samples: %+v", rv)
	}
}

func TestRingEviction(t *testing.T) {
	const sealed = retention + 5
	c := New(1)
	r := &metrics.Counter{}
	c.Rate("w", r)
	for i := 0; i < sealed; i++ {
		for k := 0; k < i; k++ { // window i carries count i
			r.Inc()
		}
		c.Advance(float64(i + 1))
	}
	if len(c.Snapshots(0)) != retention {
		t.Fatalf("Len = %d, want %d", len(c.Snapshots(0)), retention)
	}
	if c.TotalSealed() != sealed || c.Evicted() != 5 {
		t.Fatalf("TotalSealed=%d Evicted=%d, want %d, 5", c.TotalSealed(), c.Evicted(), sealed)
	}
	snaps := c.Snapshots(0)
	for i, s := range snaps {
		wantWin := uint64(5 + i)
		rv, _ := s.RateOf("w")
		if s.Window != wantWin || rv.Count != int64(wantWin) {
			t.Fatalf("retained[%d] = window %d count %d, want window %d", i, s.Window, rv.Count, wantWin)
		}
	}
	// last=N truncates from the oldest side.
	last2 := c.Snapshots(2)
	if len(last2) != 2 || last2[0].Window != sealed-2 || last2[1].Window != sealed-1 {
		t.Fatalf("Snapshots(2) = %v", last2)
	}
}

// TestQuantileAccuracy checks the windowed bucketed quantiles against the
// exact quantiles from package stats on seeded streams: the estimate never
// falls below the exact value and overshoots by at most the bucket ratio
// (10^(1/9) ≈ 1.29 for the default latency buckets).
func TestQuantileAccuracy(t *testing.T) {
	const ratio = 1.2916 // 10^(1/9), rounded up
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 5; trial++ {
		c := New(1)
		h := metrics.NewHistogram(nil)
		c.Histogram("lat", h)
		xs := make([]float64, 0, 5000)
		for i := 0; i < 5000; i++ {
			// Latency-shaped: log-uniform over 2µs..200ms.
			v := 2e-6 * math.Pow(1e5, rng.Float64())
			xs = append(xs, v)
			h.Observe(v)
		}
		c.Advance(1)
		hv, _ := latest(c).Hist("lat")
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		for _, q := range []struct {
			q   float64
			est float64
		}{{0.50, hv.P50}, {0.95, hv.P95}, {0.99, hv.P99}} {
			// The bucketed estimate covers the ⌈q·n⌉-th order statistic from
			// above, and overshoots the interpolated exact quantile by at
			// most one bucket ratio (plus slack for the interpolation gap).
			rank := int(math.Ceil(q.q * float64(len(sorted))))
			if lo := sorted[rank-1]; q.est < lo*0.9999 {
				t.Fatalf("trial %d p%g: estimate %g below order statistic %g", trial, 100*q.q, q.est, lo)
			}
			exact := stats.Quantile(xs, q.q)
			if q.est > exact*ratio*1.01 {
				t.Fatalf("trial %d p%g: estimate %g exceeds exact %g × bucket ratio", trial, 100*q.q, q.est, exact)
			}
		}
		// Quantiles clamp to the observed max, so they stay finite even when
		// the rank lands in the overflow bucket.
		if hv.P99 > hv.Max {
			t.Fatalf("p99 %g exceeds max %g", hv.P99, hv.Max)
		}
	}
}

// TestSeriesDedupeByName pins re-registration: the same instrument under the
// same name is one series, and a second instrument under a taken name (or a
// histogram already windowed elsewhere) panics instead of silently
// shadowing the first.
// TestStraddlingSampleKeepsExtremaFinite covers a sample that races a seal:
// its extrema went to the previous window while its bucket count lands in
// this one. The window must fall back to the edges of its non-empty bucket
// rather than report the ±Inf "no sample" sentinels.
func TestStraddlingSampleKeepsExtremaFinite(t *testing.T) {
	c := New(1)
	h := metrics.NewHistogram(nil)
	c.Histogram("lat", h)
	b := h.Bounds()
	for w, v := range []float64{3e-3, 100} { // an inner bucket, then overflow
		h.Observe(v)
		h.TakeWindow() // what the racing seal took
		c.Advance(float64(w + 1))
		hv, _ := latest(c).Hist("lat")
		i := sort.SearchFloat64s(b, v)
		lo, hi := b[i-1], b[min(i, len(b)-1)]
		if hv.Count != 1 || hv.Min != lo || hv.Max != hi || hv.P99 != hi {
			t.Fatalf("sample %g: window %+v, want min %g max %g", v, hv, lo, hi)
		}
	}
}

func TestSeriesDedupeByName(t *testing.T) {
	c := New(1)
	a := &metrics.Counter{}
	c.Rate("same", a)
	c.Rate("same", a)
	a.Inc()
	a.Inc()
	c.Advance(1)
	rv, _ := latest(c).RateOf("same")
	if rv.Count != 2 {
		t.Fatalf("duplicate registration split the series: %+v", rv)
	}
	if len(latest(c).Rates) != 1 {
		t.Fatalf("series duplicated: %v", latest(c).Rates)
	}

	h := metrics.NewHistogram(nil)
	c.Histogram("lat", h)
	c.Histogram("lat", h)
	for name, register := range map[string]func(){
		"other counter":   func() { c.Rate("same", &metrics.Counter{}) },
		"other histogram": func() { c.Histogram("lat", metrics.NewHistogram(nil)) },
		"claimed twice":   func() { New(1).Histogram("lat", h) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: registration did not panic", name)
				}
			}()
			register()
		}()
	}
}

func TestSnapshotSeriesSorted(t *testing.T) {
	c := New(1)
	c.Rate("zeta", &metrics.Counter{})
	c.Rate("alpha", &metrics.Counter{})
	c.Gauge("mid")
	c.Gauge("aaa")
	c.Advance(1)
	s := latest(c)
	if s.Rates[0].Name != "alpha" || s.Rates[1].Name != "zeta" {
		t.Fatalf("rates not sorted: %v", s.Rates)
	}
	if s.Gauges[0].Name != "aaa" || s.Gauges[1].Name != "mid" {
		t.Fatalf("gauges not sorted: %v", s.Gauges)
	}
}

type failingSink struct{ calls int }

func (f *failingSink) WriteSnapshot(*Snapshot) error {
	f.calls++
	return errors.New("disk full")
}

func TestSinkErrorLatches(t *testing.T) {
	c := New(1)
	sink := &failingSink{}
	c.SetSink(sink)
	c.Advance(5)
	if c.SinkErr() == nil {
		t.Fatal("sink error not surfaced")
	}
	if sink.calls != 1 {
		t.Fatalf("failed sink called %d times, want 1 (first error latches)", sink.calls)
	}
	// The ring still fills even though the sink is dead.
	if len(c.Snapshots(0)) != 5 {
		t.Fatalf("Len = %d after sink failure", len(c.Snapshots(0)))
	}
}

type countingSink struct{ snaps []Snapshot }

func (c *countingSink) WriteSnapshot(s *Snapshot) error {
	c.snaps = append(c.snaps, *s)
	return nil
}

func TestSinkSeesEvictedWindows(t *testing.T) {
	c := New(1)
	sink := &countingSink{}
	c.SetSink(sink)
	r := &metrics.Counter{}
	c.Rate("n", r)
	const sealed = retention + 7
	for i := 0; i < sealed; i++ {
		r.Inc()
		c.Advance(float64(i + 1))
	}
	if len(c.Snapshots(0)) != retention {
		t.Fatalf("ring Len = %d", len(c.Snapshots(0)))
	}
	// Every sealed window reached the sink before eviction, so the full
	// curve survives a bounded ring.
	if len(sink.snaps) != sealed {
		t.Fatalf("sink saw %d windows, want %d", len(sink.snaps), sealed)
	}
	for i, s := range sink.snaps {
		if s.Window != uint64(i) {
			t.Fatalf("sink window %d out of order: %d", i, s.Window)
		}
	}
}

func TestOnSealProbeLandsInClosingWindow(t *testing.T) {
	c := New(1)
	g := c.Gauge("probe")
	var ends []float64
	c.OnSeal(func(end float64) {
		ends = append(ends, end)
		g.Set(end) // public API from inside a probe must not deadlock
	})
	c.Advance(3)
	if len(ends) != 3 || ends[0] != 1 || ends[2] != 3 {
		t.Fatalf("probe end times = %v", ends)
	}
	for i, s := range c.Snapshots(0) {
		gv, _ := s.GaugeOf("probe")
		if gv.Samples != 1 || gv.Last != float64(i+1) {
			t.Fatalf("window %d probe value = %+v", i, gv)
		}
	}
}

func TestNilCollectorIsNoOp(t *testing.T) {
	var c *Collector
	c.Histogram("x", metrics.NewHistogram(nil))
	c.Rate("x", &metrics.Counter{})
	c.Ratio("x", &metrics.Counter{}, &metrics.Counter{})
	g := c.Gauge("x")
	g.Set(1)
	c.OnSeal(func(float64) { t.Fatal("probe on nil collector") })
	c.SetSink(&countingSink{})
	c.Advance(100)
	c.Seal()
	if c.TotalSealed() != 0 || c.Evicted() != 0 || c.Window() != 0 {
		t.Fatal("nil collector reported state")
	}
	if c.Snapshots(10) != nil || c.SinkErr() != nil {
		t.Fatal("nil collector returned data")
	}
}

func TestConfigValidation(t *testing.T) {
	for name, window := range map[string]float64{
		"zero window": 0,
		"neg window":  -1,
		"NaN window":  math.NaN(),
		"Inf window":  math.Inf(1),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: New did not panic", name)
				}
			}()
			New(window)
		}()
	}
}

// TestLogBuckets pins the bucketing the windowed latency quantiles are read
// from (metrics.TimeBuckets, the default of every duration histogram): the
// 10^(1/9) bucket ratio is the over-estimate bound TestQuantileAccuracy
// relies on.
func TestLogBuckets(t *testing.T) {
	b := metrics.NewHistogram(nil).Bounds()
	if b[0] != 1e-6 {
		t.Fatalf("first bound %g", b[0])
	}
	if b[len(b)-1] < 10 {
		t.Fatalf("last bound %g < hi", b[len(b)-1])
	}
	for i := 1; i < len(b); i++ {
		r := b[i] / b[i-1]
		if r < 1.29 || r > 1.30 {
			t.Fatalf("bucket ratio %g at %d", r, i)
		}
	}
}

// latest returns the newest sealed window of c, or nil when none sealed yet.
func latest(c *Collector) *Snapshot {
	s := c.Snapshots(1)
	if len(s) == 0 {
		return nil
	}
	return &s[0]
}
