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
	r := NewRegistry()
	c := r.Counter("requests_total", "requests")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d", c.Value())
	}
	g := r.Gauge("load", "current load")
	g.Set(2.5)
	g.Add(-1)
	if g.Value() != 1.5 {
		t.Fatalf("gauge = %g", g.Value())
	}
	// Same name returns the same instrument.
	if r.Counter("requests_total", "").Value() != 5 {
		t.Fatal("re-registration lost state")
	}
}

func TestCounterNegativeAddPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on negative add")
		}
	}()
	NewRegistry().Counter("c", "").Add(-1)
}

func TestKindClashPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on kind clash")
		}
	}()
	r.Gauge("x", "")
}

func TestInvalidNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on invalid name")
		}
	}()
	NewRegistry().Counter("9bad name", "")
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
	r := NewRegistry()
	tm := r.Timer("phase_seconds", "phase time")
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
	c := r.Counter("a", "")
	g := r.Gauge("b", "")
	h := r.Histogram("c", "", nil)
	tm := r.Timer("d", "")
	if c != nil || g != nil || h != nil || tm != nil {
		t.Fatal("nil registry handed out live instruments")
	}
	// All no-ops, no panics.
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
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
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Concurrent registration of the same names plus updates.
			c := r.Counter("ops_total", "")
			g := r.Gauge("level", "")
			h := r.Histogram("size", "", LogBuckets(1, 1e6, 3))
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i % 7))
			}
		}()
	}
	wg.Wait()
	if n := r.Counter("ops_total", "").Value(); n != workers*per {
		t.Fatalf("counter = %d, want %d", n, workers*per)
	}
	if v := r.Gauge("level", "").Value(); v != workers*per {
		t.Fatalf("gauge = %g", v)
	}
	if n := r.Histogram("size", "", nil).Count(); n != workers*per {
		t.Fatalf("histogram count = %d", n)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("reqs_total", "total requests").Add(3)
	r.Gauge("rho", "network load").Set(0.25)
	h := r.Histogram("lat_seconds", "latency", []float64{0.1, 1})
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
	r.Counter("a_total", "").Inc()
	h := r.Histogram("b_seconds", "", []float64{1})
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
	r.Counter("x_total", "").Inc()
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
	r.Counter("first_total", "")
	a := &Counter{}
	r.Publish("x_total", "x", a)
	a.Add(2)
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
	if r.Counter("x_total", "") != b || r.Histogram("t_seconds", "", nil).Count() != 1 {
		t.Fatal("registry does not hand out the published instruments")
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
