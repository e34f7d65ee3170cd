//go:build !race

package timeseries

import (
	"testing"

	"repro/internal/metrics"
)

// The race detector instruments memory accesses in ways that add allocations,
// so these regression tests only run in normal builds (same split as
// internal/core's alloc tests).

// TestDisabledAddsNoAllocs pins the "telemetry off" contract: every
// instrument call on a nil collector must cost only nil checks — zero
// allocations — so the simulator hot path can call unconditionally.
func TestDisabledAddsNoAllocs(t *testing.T) {
	var c *Collector
	h := metrics.NewHistogram(nil)
	r, hit, miss := &metrics.Counter{}, &metrics.Counter{}, &metrics.Counter{}
	c.Histogram("x", h)
	c.Rate("x", r)
	c.Ratio("x", hit, miss)
	g := c.Gauge("x")
	if n := testing.AllocsPerRun(200, func() {
		h.Observe(1)
		r.Inc()
		hit.Inc()
		g.Set(0.5)
		c.Advance(10)
		c.Seal()
	}); n != 0 {
		t.Fatalf("disabled telemetry allocates %v per op, want 0", n)
	}
}

// TestSteadyStateObserveAllocsFree pins the hot observe path of a live
// collector: samples go into the windowed instruments' atomics (and gauge
// samples into the collector's accumulator), so no per-sample allocations.
func TestSteadyStateObserveAllocsFree(t *testing.T) {
	c := New(1e9) // one giant window: no seals during the run
	h := metrics.NewHistogram(nil)
	r, hit, miss := &metrics.Counter{}, &metrics.Counter{}, &metrics.Counter{}
	c.Histogram("lat", h)
	c.Rate("n", r)
	c.Ratio("b", hit, miss)
	g := c.Gauge("v")
	h.Observe(1e-3) // warm the path
	if n := testing.AllocsPerRun(200, func() {
		h.Observe(42e-6)
		r.Inc()
		miss.Inc()
		g.Set(0.25)
	}); n != 0 {
		t.Fatalf("steady-state observe allocates %v per op, want 0", n)
	}
}
