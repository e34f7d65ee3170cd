package timeseries

import (
	"bytes"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
)

// TestConcurrentScrape drives the single-owner write path while reader
// goroutines scrape snapshots, mirroring the simulator loop plus debug HTTP
// handlers. Run with -race; correctness here is "no torn reads, snapshots
// internally consistent".
func TestConcurrentScrape(t *testing.T) {
	c := New(1)
	h := metrics.NewHistogram(nil)
	blocked, ok := &metrics.Counter{}, &metrics.Counter{}
	c.Histogram("lat", h)
	c.Ratio("blocking", blocked, ok)
	g := c.Gauge("load")
	c.OnSeal(func(end float64) { g.Set(end) })

	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				for _, s := range c.Snapshots(8) {
					hv, ok := s.Hist("lat")
					if !ok {
						t.Error("snapshot missing series")
						return
					}
					if hv.Count > 0 && (hv.Min > hv.Max || hv.P50 > hv.Max) {
						t.Errorf("inconsistent snapshot: %+v", hv)
						return
					}
				}
				c.Snapshots(1)
				c.TotalSealed()
				c.SinkErr()
			}
		}()
	}

	// Owner goroutine: observe and advance far enough that the ring evicts
	// while the readers scrape.
	const windows = retention + 100
	for w := 0; w < windows; w++ {
		for i := 0; i < 50; i++ {
			h.Observe(float64(w*50+i+1) * 1e-6)
			if i%7 == 0 {
				blocked.Inc()
			} else {
				ok.Inc()
			}
		}
		c.Advance(float64(w + 1))
	}
	stop.Store(true)
	wg.Wait()

	if c.TotalSealed() != windows {
		t.Fatalf("sealed %d windows, want %d", c.TotalSealed(), windows)
	}
}

// TestMultiWriterWindowsConserve hammers the windowed instruments from eight
// writer goroutines while another goroutine seals windows — a daemon's
// request goroutines and its ticker. Every sample must land in exactly one
// window (window counts telescope to the cumulative instruments), and a
// sample straddling a seal must not leak a ±Inf or NaN extremum into any
// sealed window (the JSONL sink would refuse to encode it).
func TestMultiWriterWindowsConserve(t *testing.T) {
	c := New(1)
	var buf bytes.Buffer
	sink := NewJSONL(&buf)
	c.SetSink(sink)
	h := metrics.NewHistogram(nil)
	n, hit, miss := &metrics.Counter{}, &metrics.Counter{}, &metrics.Counter{}
	c.Histogram("lat", h)
	c.Rate("n", n)
	c.Ratio("blocking", hit, miss)

	const writers, perWriter = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWriter; i++ {
				// 100ns..100s: below the first bucket bound through overflow.
				h.Observe(1e-7 * math.Pow(1e9, rng.Float64()))
				n.Inc()
				if i%5 == 0 {
					hit.Inc()
				} else {
					miss.Inc()
				}
			}
		}(w)
	}
	var stop atomic.Bool
	sealer := make(chan struct{})
	go func() {
		defer close(sealer)
		for at := 1.0; !stop.Load(); at++ {
			c.Advance(at)
			time.Sleep(50 * time.Microsecond)
		}
	}()
	wg.Wait()
	stop.Store(true)
	<-sealer
	c.Seal()
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := c.SinkErr(); err != nil {
		t.Fatalf("a sealed window did not encode: %v", err)
	}

	snaps, err := readJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(snaps)) != c.TotalSealed() {
		t.Fatalf("sink holds %d windows, collector sealed %d", len(snaps), c.TotalSealed())
	}
	var count, rate, num, den int64
	for _, s := range snaps {
		hv, _ := s.Hist("lat")
		count += hv.Count
		for _, v := range []float64{hv.Sum, hv.Min, hv.Max, hv.P99} {
			if math.IsInf(v, 0) || math.IsNaN(v) {
				t.Fatalf("window %d leaks a non-finite value: %+v", s.Window, hv)
			}
		}
		if hv.Count > 0 && (hv.Min > hv.Max || hv.P99 > hv.Max) {
			t.Fatalf("window %d inconsistent: %+v", s.Window, hv)
		}
		rv, _ := s.RateOf("n")
		rate += rv.Count
		bv, _ := s.RatioOf("blocking")
		num += bv.Num
		den += bv.Den
	}
	if count != h.Count() || count != writers*perWriter {
		t.Fatalf("Σ window count %d, histogram Count() %d, observed %d", count, h.Count(), writers*perWriter)
	}
	if rate != n.Value() {
		t.Fatalf("Σ rate count %d, counter %d", rate, n.Value())
	}
	if num != hit.Value() || den != hit.Value()+miss.Value() {
		t.Fatalf("Σ ratio %d/%d, counters hit %d miss %d", num, den, hit.Value(), miss.Value())
	}
}
