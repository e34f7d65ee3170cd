package slo

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/timeseries"
)

// fakeClock is the deterministic wall clock behind the rate-limit tests.
type fakeClock struct{ t time.Time }

func (f *fakeClock) now() time.Time          { return f.t }
func (f *fakeClock) advance(d time.Duration) { f.t = f.t.Add(d) }
func noSleep(time.Duration)                  {}

func newTestCapturer(t *testing.T, cfg CaptureConfig, fc *fakeClock) *Capturer {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	c, err := NewCapturer(cfg)
	if err != nil {
		t.Fatalf("NewCapturer: %v", err)
	}
	c.now = fc.now
	c.sleep = noSleep
	return c
}

func testBreach() Breach {
	return Breach{Objective: "p99", Series: "lat", At: 12, Value: 0.9, Max: 0.1, ShortBurn: 9, LongBurn: 4}
}

func TestCaptureBundle(t *testing.T) {
	col := timeseries.New(1)
	lat := metrics.NewHistogram(nil)
	col.Histogram("lat", lat)
	for i := 1; i <= 3; i++ {
		lat.Observe(0.5)
		col.Advance(float64(i))
	}

	fc := &fakeClock{t: time.Unix(1700000000, 0)}
	dir := t.TempDir()
	c := newTestCapturer(t, CaptureConfig{
		Dir:    dir,
		Series: col,
		Status: func() any { return map[string]int{"live_connections": 7} },
	}, fc)

	c.HandleBreach(testBreach())
	c.Wait()

	st := c.Status()
	if st.LastError != "" {
		t.Fatalf("capture error: %s", st.LastError)
	}
	if len(st.Bundles) != 1 {
		t.Fatalf("bundles = %d, want 1", len(st.Bundles))
	}
	b := st.Bundles[0]
	if b.Name != "incident-001-p99" || b.Objective != "p99" || b.At != 12 {
		t.Fatalf("bundle info: %+v", b)
	}

	// The bundle landed atomically: no .tmp residue.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("temp bundle left behind: %s", e.Name())
		}
	}

	bundle := filepath.Join(dir, b.Name)
	for _, f := range []string{"manifest.json", "heap.pprof", "cpu.pprof", "timeseries.json", "status.json", "runtime.json"} {
		fi, err := os.Stat(filepath.Join(bundle, f))
		if err != nil {
			t.Fatalf("bundle missing %s: %v", f, err)
		}
		if fi.Size() == 0 {
			t.Fatalf("bundle file %s is empty", f)
		}
	}

	// The manifest round-trips and carries the breach.
	raw, err := os.ReadFile(filepath.Join(bundle, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		Name   string `json:"name"`
		Breach Breach `json:"breach"`
		Files  []string
	}
	if err := json.Unmarshal(raw, &manifest); err != nil {
		t.Fatalf("manifest: %v", err)
	}
	if manifest.Breach.Objective != "p99" || manifest.Breach.Value != 0.9 {
		t.Fatalf("manifest breach: %+v", manifest.Breach)
	}

	// timeseries.json holds the sealed windows.
	raw, err = os.ReadFile(filepath.Join(bundle, "timeseries.json"))
	if err != nil {
		t.Fatal(err)
	}
	var snaps []timeseries.Snapshot
	if err := json.Unmarshal(raw, &snaps); err != nil {
		t.Fatalf("timeseries.json: %v", err)
	}
	if len(snaps) != 3 {
		t.Fatalf("bundled windows = %d, want 3", len(snaps))
	}
}

func TestCaptureRateLimit(t *testing.T) {
	fc := &fakeClock{t: time.Unix(1700000000, 0)}
	c := newTestCapturer(t, CaptureConfig{Dir: t.TempDir(), MinInterval: time.Minute}, fc)

	c.HandleBreach(testBreach())
	c.Wait()
	// Inside the rate-limit window: counted, not captured.
	fc.advance(10 * time.Second)
	c.HandleBreach(testBreach())
	c.HandleBreach(testBreach())
	c.Wait()
	st := c.Status()
	if len(st.Bundles) != 1 || st.Skipped != 2 {
		t.Fatalf("bundles = %d skipped = %d, want 1 and 2", len(st.Bundles), st.Skipped)
	}
	// Past the window: captured again, sequence advances.
	fc.advance(time.Minute)
	c.HandleBreach(testBreach())
	c.Wait()
	st = c.Status()
	if len(st.Bundles) != 2 {
		t.Fatalf("bundles after interval = %d, want 2", len(st.Bundles))
	}
	if st.Bundles[1].Name != "incident-002-p99" {
		t.Fatalf("second bundle name = %s", st.Bundles[1].Name)
	}
}

func TestCapturerValidation(t *testing.T) {
	if _, err := NewCapturer(CaptureConfig{}); err == nil {
		t.Fatal("want error for empty Dir")
	}
	var c *Capturer
	c.HandleBreach(testBreach()) // nil-safe
	c.Wait()
	if st := c.Status(); len(st.Bundles) != 0 {
		t.Fatalf("nil capturer bundles: %+v", st)
	}
}
