package metrics

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	var c Counter
	for i := 0; i < 5; i++ {
		c.Inc()
	}
	if c.Value() != 5 {
		t.Fatalf("counter = %d", c.Value())
	}
	var g Gauge
	g.Set(2.5)
	g.Set(1.5)
	if g.Value() != 1.5 {
		t.Fatalf("gauge = %g", g.Value())
	}
}

func TestKindClashPanics(t *testing.T) {
	r := NewRegistry()
	r.Publish("x", "", &Counter{})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on kind clash")
		}
	}()
	r.Publish("x", "", &Gauge{})
}

func TestInvalidNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on invalid name")
		}
	}()
	NewRegistry().Publish("9bad name", "", &Counter{})
}

func TestHistogramObserveAndBuckets(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != 556.5 {
		t.Fatalf("sum = %g", h.Sum())
	}
	bks := h.Buckets()
	// Cumulative: ≤1 → 2 (0.5 and 1 via le semantics), ≤10 → 3, ≤100 → 4, +Inf → 5.
	want := []int64{2, 3, 4, 5}
	for i, w := range want {
		if bks[i].Count != w {
			t.Fatalf("bucket %d = %d, want %d", i, bks[i].Count, w)
		}
	}
	if !math.IsInf(bks[3].LE, 1) {
		t.Fatal("last bucket not +Inf")
	}
	if q := h.Quantile(0.5); q != 10 {
		t.Fatalf("p50 = %g", q)
	}
	if q := h.Quantile(1); !math.IsInf(q, 1) {
		t.Fatalf("p100 = %g, want +Inf", q)
	}
}

func TestLogBuckets(t *testing.T) {
	b := LogBuckets(1e-6, 10, 3)
	if b[0] != 1e-6 {
		t.Fatalf("first = %g", b[0])
	}
	if last := b[len(b)-1]; last < 10 {
		t.Fatalf("last = %g, want ≥ 10", last)
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatal("not increasing")
		}
	}
	// 3 per decade over 7 decades ≈ 22 bounds.
	if len(b) < 20 || len(b) > 24 {
		t.Fatalf("len = %d", len(b))
	}
}

func TestTimer(t *testing.T) {
	tm := NewTimer()
	start := tm.Start()
	time.Sleep(time.Millisecond)
	tm.Stop(start)
	if tm.Hist().Count() != 1 {
		t.Fatal("no observation")
	}
	if tm.Hist().Sum() <= 0 {
		t.Fatal("non-positive duration")
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	var (
		c  *Counter
		g  *Gauge
		h  *Histogram
		tm *Timer
	)
	// All no-ops, no panics.
	r.Publish("a", "", &Counter{})
	c.Inc()
	g.Set(1)
	h.Observe(1)
	tm.Stop(tm.Start())
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments accumulated state")
	}
	if h.Buckets() != nil || h.Quantile(0.5) != 0 || tm.Hist() != nil {
		t.Fatal("nil reads not zero")
	}
	if !tm.Start().IsZero() {
		t.Fatal("nil timer read the clock")
	}
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot")
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil || buf.Len() != 0 {
		t.Fatal("nil registry wrote output")
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c, h := &Counter{}, NewHistogram(LogBuckets(1, 1e6, 3))
	r.Publish("ops_total", "", c)
	r.Publish("size", "", h)
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Concurrent publication of the same name plus updates and
			// snapshots.
			g := &Gauge{}
			r.Publish("level", "", g)
			for i := 0; i < per; i++ {
				c.Inc()
				g.Set(float64(i))
				h.Observe(float64(i % 7))
			}
			r.Snapshot()
		}()
	}
	wg.Wait()
	if n := c.Value(); n != workers*per {
		t.Fatalf("counter = %d, want %d", n, workers*per)
	}
	if n := h.Count(); n != workers*per {
		t.Fatalf("histogram count = %d", n)
	}
	snap := r.Snapshot()
	if len(snap) != 3 || snap[2].Name != "level" || *snap[2].Value != per-1 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	c, g, h := &Counter{}, &Gauge{}, NewHistogram([]float64{0.1, 1})
	r.Publish("reqs_total", "total requests", c)
	r.Publish("rho", "network load", g)
	r.Publish("lat_seconds", "latency", h)
	c.Inc()
	c.Inc()
	c.Inc()
	g.Set(0.25)
	h.Observe(0.05)
	h.Observe(2)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP reqs_total total requests",
		"# TYPE reqs_total counter",
		"reqs_total 3",
		"# TYPE rho gauge",
		"rho 0.25",
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{le="0.1"} 1`,
		`lat_seconds_bucket{le="1"} 1`,
		`lat_seconds_bucket{le="+Inf"} 2`,
		"lat_seconds_sum 2.05",
		"lat_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	// Every non-comment line is "name[{labels}] value".
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if parts := strings.Fields(line); len(parts) != 2 {
			t.Fatalf("malformed line %q", line)
		}
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	c, h := &Counter{}, NewHistogram([]float64{1})
	r.Publish("a_total", "", c)
	r.Publish("b_seconds", "", h)
	c.Inc()
	h.Observe(0.5)
	h.Observe(math.Inf(1)) // non-finite sum must not break encoding
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snaps []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &snaps); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if len(snaps) != 2 {
		t.Fatalf("got %d metrics", len(snaps))
	}
	if snaps[0]["name"] != "a_total" || snaps[0]["value"].(float64) != 1 {
		t.Fatalf("counter snapshot = %v", snaps[0])
	}
	if snaps[1]["count"].(float64) != 2 {
		t.Fatalf("histogram snapshot = %v", snaps[1])
	}
	if _, ok := snaps[1]["sum"]; ok {
		t.Fatal("infinite sum should be omitted")
	}
}

func TestWriteFileBySuffix(t *testing.T) {
	r := NewRegistry()
	c := &Counter{}
	r.Publish("x_total", "", c)
	c.Inc()
	dir := t.TempDir()

	prom := filepath.Join(dir, "m.prom")
	if err := r.WriteFile(prom); err != nil {
		t.Fatal(err)
	}
	b, _ := os.ReadFile(prom)
	if !strings.Contains(string(b), "x_total 1") {
		t.Fatalf("prom output: %s", b)
	}

	js := filepath.Join(dir, "m.json")
	if err := r.WriteFile(js); err != nil {
		t.Fatal(err)
	}
	b, _ = os.ReadFile(js)
	var v []map[string]any
	if err := json.Unmarshal(b, &v); err != nil {
		t.Fatalf("json output invalid: %v", err)
	}
}

func TestHistogramWindow(t *testing.T) {
	h := NewHistogram([]float64{1, 2})
	h.Observe(5) // before Claim: counted, not windowed
	h.Claim()
	if sum, lo, hi := h.TakeWindow(); sum != 0 || !math.IsInf(lo, 1) || !math.IsInf(hi, -1) {
		t.Fatalf("empty window = %g, %g, %g; want 0, +Inf, -Inf", sum, lo, hi)
	}
	h.Observe(1.5)
	h.Observe(0.5)
	if sum, lo, hi := h.TakeWindow(); sum != 2 || lo != 0.5 || hi != 1.5 {
		t.Fatalf("window = %g, %g, %g; want 2, 0.5, 1.5", sum, lo, hi)
	}
	counts := make([]int64, len(h.Bounds())+1)
	h.LoadCounts(counts)
	if counts[0] != 1 || counts[1] != 1 || counts[2] != 1 || h.Count() != 3 {
		t.Fatalf("cumulative counts %v, Count %d", counts, h.Count())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("second Claim did not panic")
		}
	}()
	h.Claim()
}

func TestPublishReplacesInPlace(t *testing.T) {
	r := NewRegistry()
	r.Publish("first_total", "", &Counter{})
	a := &Counter{}
	r.Publish("x_total", "x", a)
	a.Inc()
	a.Inc()
	b := &Counter{}
	r.Publish("x_total", "x", b)
	b.Inc()
	tm := NewTimer()
	r.Publish("t_seconds", "", tm)
	tm.Observe(time.Millisecond)

	snap := r.Snapshot()
	if len(snap) != 3 || snap[1].Name != "x_total" || *snap[1].Value != 1 {
		t.Fatalf("republished counter: %+v", snap)
	}
	if snap[2].Name != "t_seconds" || *snap[2].Count != 1 {
		t.Fatalf("published timer: %+v", snap[2])
	}
	var nilReg *Registry
	nilReg.Publish("x_total", "", a)
	defer func() {
		if recover() == nil {
			t.Fatal("publishing a gauge over a counter did not panic")
		}
	}()
	r.Publish("x_total", "", &Gauge{})
}
