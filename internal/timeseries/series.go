package timeseries

import (
	"math"

	"repro/internal/metrics"
)

// Snapshot is one sealed window: nominal [Start, End) boundaries plus the
// per-series values, each slice sorted by series name so renderings are
// byte-stable. Snapshots are immutable once sealed.
type Snapshot struct {
	Window uint64  `json:"window"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`

	Hists  []HistValue  `json:"hist,omitempty"`
	Rates  []RateValue  `json:"rate,omitempty"`
	Ratios []RatioValue `json:"ratio,omitempty"`
	Gauges []GaugeValue `json:"gauge,omitempty"`
}

// Hist returns the named histogram value of the window (zero value, false
// when the series did not exist).
func (s *Snapshot) Hist(name string) (HistValue, bool) {
	for _, v := range s.Hists {
		if v.Name == name {
			return v, true
		}
	}
	return HistValue{}, false
}

// RateOf returns the named rate value of the window.
func (s *Snapshot) RateOf(name string) (RateValue, bool) {
	for _, v := range s.Rates {
		if v.Name == name {
			return v, true
		}
	}
	return RateValue{}, false
}

// RatioOf returns the named ratio value of the window.
func (s *Snapshot) RatioOf(name string) (RatioValue, bool) {
	for _, v := range s.Ratios {
		if v.Name == name {
			return v, true
		}
	}
	return RatioValue{}, false
}

// GaugeOf returns the named gauge value of the window.
func (s *Snapshot) GaugeOf(name string) (GaugeValue, bool) {
	for _, v := range s.Gauges {
		if v.Name == name {
			return v, true
		}
	}
	return GaugeValue{}, false
}

// HistValue is a histogram series over one window. Quantiles are bucketed
// upper bounds clamped to the observed Max, so they never exceed the true
// sample maximum; an empty window reports all zeros.
type HistValue struct {
	Name  string  `json:"name"`
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// RateValue is a counter series over one window: the raw count and the
// count per second of the window's time axis.
type RateValue struct {
	Name  string  `json:"name"`
	Count int64   `json:"count"`
	Rate  float64 `json:"rate"`
}

// RatioValue is a guarded num/den series over one window. Value is 0 when
// Den is 0 — an empty window reports 0, never NaN.
type RatioValue struct {
	Name  string  `json:"name"`
	Num   int64   `json:"num"`
	Den   int64   `json:"den"`
	Value float64 `json:"value"`
}

// GaugeValue is a sampled-value series over one window. An unsampled window
// reports all zeros with Samples == 0.
type GaugeValue struct {
	Name    string  `json:"name"`
	Last    float64 `json:"last"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	Mean    float64 `json:"mean"`
	Samples int64   `json:"samples"`
}

// histSource windows a metrics.Histogram: prev holds the cumulative bucket
// counts read at the previous seal, and cur is scratch reused every seal, so
// sealing allocates nothing beyond the snapshot itself.
type histSource struct {
	name      string
	h         *metrics.Histogram
	prev, cur []int64
}

func newHistSource(name string, h *metrics.Histogram) *histSource {
	h.Claim()
	n := len(h.Bounds()) + 1
	s := &histSource{name: name, h: h, prev: make([]int64, n), cur: make([]int64, n)}
	h.LoadCounts(s.prev)
	return s
}

// seal reads the window: bucket counts are the change since the previous
// seal (read before the window state is taken, see metrics.Histogram.Observe)
// and sum/min/max cover the samples folded in since then. A sample racing
// the seal can leave a counted window without extrema; those fall back to
// the edges of the window's non-empty buckets, so Min/Max stay finite.
func (s *histSource) seal() HistValue {
	s.h.LoadCounts(s.cur)
	sum, lo, hi := s.h.TakeWindow()
	bounds := s.h.Bounds()
	var n int64
	first, last := -1, -1
	for i, c := range s.cur {
		d := c - s.prev[i]
		s.prev[i], s.cur[i] = c, d
		if d > 0 {
			if first < 0 {
				first = i
			}
			last = i
		}
		n += d
	}
	if n == 0 {
		return HistValue{Name: s.name}
	}
	if math.IsInf(lo, 1) {
		lo = 0
		if first > 0 {
			lo = bounds[first-1]
		}
	}
	if math.IsInf(hi, -1) {
		hi = bounds[min(last, len(bounds)-1)]
	}
	lo = min(lo, hi)
	return HistValue{
		Name: s.name, Count: n, Sum: sum, Mean: sum / float64(n), Min: lo, Max: hi,
		// Clamping to the window max also makes the overflow bucket finite.
		P50: min(metrics.BucketQuantile(bounds, s.cur, n, 0.50), hi),
		P95: min(metrics.BucketQuantile(bounds, s.cur, n, 0.95), hi),
		P99: min(metrics.BucketQuantile(bounds, s.cur, n, 0.99), hi),
	}
}

// rateSource windows a counter: the change in its value since the previous
// seal.
type rateSource struct {
	name string
	c    *metrics.Counter
	prev int64
}

func (s *rateSource) seal(window float64) RateValue {
	v := s.c.Value()
	v, s.prev = v-s.prev, v
	return RateValue{Name: s.name, Count: v, Rate: float64(v) / window}
}

// ratioSource windows a hit/miss counter pair as Δhit / (Δhit + Δmiss).
type ratioSource struct {
	name              string
	hit, miss         *metrics.Counter
	prevHit, prevMiss int64
}

func (s *ratioSource) seal() RatioValue {
	h, m := s.hit.Value(), s.miss.Value()
	v := RatioValue{Name: s.name, Num: h - s.prevHit}
	v.Den = v.Num + m - s.prevMiss
	s.prevHit, s.prevMiss = h, m
	if v.Den != 0 {
		v.Value = float64(v.Num) / float64(v.Den)
	}
	return v
}

type gaugeSeries struct {
	name string
	last float64
	min  float64
	max  float64
	sum  float64
	n    int64
}

func (s *gaugeSeries) set(v float64) {
	if s.n == 0 || v < s.min {
		s.min = v
	}
	if s.n == 0 || v > s.max {
		s.max = v
	}
	s.last = v
	s.sum += v
	s.n++
}

func (s *gaugeSeries) value() GaugeValue {
	v := GaugeValue{Name: s.name, Last: s.last, Min: s.min, Max: s.max, Samples: s.n}
	if s.n > 0 {
		v.Mean = s.sum / float64(s.n)
	}
	return v
}

func (s *gaugeSeries) reset() { s.last, s.min, s.max, s.sum, s.n = 0, 0, 0, 0, 0 }

// Gauge is a handle to a windowed sampled-value series. Nil is a no-op.
type Gauge struct {
	c *Collector
	s *gaugeSeries
}

// Set records one sample of the gauged value into the open window.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.c.mu.Lock()
	g.s.set(v)
	g.c.mu.Unlock()
}
