package slo

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/timeseries"
)

// CaptureConfig parameterises an incident Capturer.
type CaptureConfig struct {
	// Dir is the directory incident bundles land in (created on demand).
	Dir string
	// MinInterval rate-limits captures: breaches inside the window after a
	// capture are counted but not captured (default 60s). A burning SLO
	// breaches once per transition, but several objectives can breach
	// together and a flapping one repeatedly — the daemon must not profile
	// itself in a loop.
	MinInterval time.Duration

	// Data sources; any may be nil, its file is then omitted.
	Flight *obs.FlightRecorder
	Series *timeseries.Collector
	// Status returns the /status payload to freeze into the bundle.
	Status func() any
}

func (c *CaptureConfig) minInterval() time.Duration {
	if c.MinInterval > 0 {
		return c.MinInterval
	}
	return time.Minute
}

const (
	// cpuProfileFor is how long a bundle's CPU profile samples: long enough
	// to see where time goes, short enough that the bundle lands while the
	// incident is still happening.
	cpuProfileFor = 250 * time.Millisecond
	// bundleWindows is how many trailing sealed telemetry windows a bundle
	// retains (at most the collector's ring).
	bundleWindows = 64
)

// BundleInfo is one captured bundle's row in /debug/incidents.
type BundleInfo struct {
	Name      string    `json:"name"`
	Objective string    `json:"objective"`
	At        float64   `json:"at"`   // collector clock of the breach
	Wall      time.Time `json:"wall"` // wall clock of the capture
	Files     []string  `json:"files"`
	// CPUProfileErr records a failed CPU profile (e.g. another profile was
	// already running); the bundle is still captured without cpu.pprof.
	CPUProfileErr string `json:"cpu_profile_err,omitempty"`
}

// CaptureStatus is the /debug/incidents payload.
type CaptureStatus struct {
	Dir       string       `json:"dir"`
	Capturing bool         `json:"capturing"`
	Skipped   int64        `json:"skipped"` // breaches dropped by the rate limit
	LastError string       `json:"last_error,omitempty"`
	Bundles   []BundleInfo `json:"bundles"`
}

// Capturer writes timestamped incident bundles on SLO breaches. A bundle is
// a directory under Dir containing:
//
//	manifest.json    breach details + file inventory (written last)
//	cpu.pprof        CPU profile sampled during the incident
//	heap.pprof       heap profile
//	flight.jsonl     flight-recorder dump (last N request traces)
//	timeseries.json  last N sealed telemetry windows
//	status.json      daemon /status snapshot
//	runtime.json     Go runtime health (goroutines, heap, GC)
//
// The bundle directory is written under a ".tmp" name and atomically renamed
// into place, so a reader listing Dir never sees a half-written bundle.
// Captures run on their own goroutine (a breach fires on the telemetry
// sealing path, which must not stall for a 250ms CPU profile) and are
// rate-limited by MinInterval.
type Capturer struct {
	cfg CaptureConfig

	// now and sleep are injectable for deterministic rate-limit tests.
	now   func() time.Time
	sleep func(time.Duration)

	mu      sync.Mutex
	busy    bool
	seq     int
	last    time.Time
	skipped int64
	lastErr error
	bundles []BundleInfo
	wg      sync.WaitGroup
}

// NewCapturer builds a capturer; Dir must be non-empty.
func NewCapturer(cfg CaptureConfig) (*Capturer, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("slo: capture dir required")
	}
	return &Capturer{cfg: cfg, now: time.Now, sleep: time.Sleep}, nil
}

// HandleBreach is the Watchdog.OnBreach hook: it rate-limits, then captures
// a bundle asynchronously. Nil-safe, so wiring is unconditional.
func (c *Capturer) HandleBreach(b Breach) {
	if c == nil {
		return
	}
	c.mu.Lock()
	now := c.now()
	if c.busy || (!c.last.IsZero() && now.Sub(c.last) < c.cfg.minInterval()) {
		c.skipped++
		c.mu.Unlock()
		return
	}
	c.busy = true
	c.seq++
	seq := c.seq
	c.last = now
	c.wg.Add(1)
	c.mu.Unlock()

	go func() {
		defer c.wg.Done()
		info, err := c.capture(seq, b, now)
		c.mu.Lock()
		c.busy = false
		if err != nil {
			c.lastErr = err
		} else {
			c.bundles = append(c.bundles, info)
		}
		c.mu.Unlock()
	}()
}

// Wait blocks until any in-flight capture has landed — for tests and
// orderly shutdown.
func (c *Capturer) Wait() {
	if c == nil {
		return
	}
	c.wg.Wait()
}

// Status reports the capturer's state for /debug/incidents.
func (c *Capturer) Status() CaptureStatus {
	if c == nil {
		return CaptureStatus{Bundles: []BundleInfo{}}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st := CaptureStatus{
		Dir:       c.cfg.Dir,
		Capturing: c.busy,
		Skipped:   c.skipped,
		Bundles:   append([]BundleInfo(nil), c.bundles...),
	}
	if st.Bundles == nil {
		st.Bundles = []BundleInfo{}
	}
	if c.lastErr != nil {
		st.LastError = c.lastErr.Error()
	}
	return st
}

// capture writes one bundle. It runs off the sealing path; any error aborts
// the bundle and removes the temp directory.
func (c *Capturer) capture(seq int, b Breach, wall time.Time) (BundleInfo, error) {
	name := fmt.Sprintf("incident-%03d-%s", seq, sanitizeMetric(b.Objective))
	tmp := filepath.Join(c.cfg.Dir, name+".tmp")
	final := filepath.Join(c.cfg.Dir, name)
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return BundleInfo{}, fmt.Errorf("slo: capture: %w", err)
	}
	info := BundleInfo{Name: name, Objective: b.Objective, At: b.At, Wall: wall}
	fail := func(err error) (BundleInfo, error) {
		_ = os.RemoveAll(tmp)
		return BundleInfo{}, fmt.Errorf("slo: capture %s: %w", name, err)
	}

	// CPU profile first: it samples while the incident is still in progress.
	// A failure to start (another profile already running, e.g. a concurrent
	// /debug/pprof/profile scrape) is recorded, not fatal — the rest of the
	// bundle is still worth having.
	if err := c.writeCPUProfile(filepath.Join(tmp, "cpu.pprof")); err != nil {
		info.CPUProfileErr = err.Error()
	} else {
		info.Files = append(info.Files, "cpu.pprof")
	}

	if err := writeTo(filepath.Join(tmp, "heap.pprof"), func(w io.Writer) error {
		return pprof.Lookup("heap").WriteTo(w, 0)
	}); err != nil {
		return fail(err)
	}
	info.Files = append(info.Files, "heap.pprof")

	if c.cfg.Flight != nil {
		if err := writeTo(filepath.Join(tmp, "flight.jsonl"), c.cfg.Flight.Dump); err != nil {
			return fail(err)
		}
		info.Files = append(info.Files, "flight.jsonl")
	}
	if c.cfg.Series != nil {
		if err := writeJSONFile(filepath.Join(tmp, "timeseries.json"), c.cfg.Series.Snapshots(bundleWindows)); err != nil {
			return fail(err)
		}
		info.Files = append(info.Files, "timeseries.json")
	}
	if c.cfg.Status != nil {
		if err := writeJSONFile(filepath.Join(tmp, "status.json"), c.cfg.Status()); err != nil {
			return fail(err)
		}
		info.Files = append(info.Files, "status.json")
	}
	if err := writeJSONFile(filepath.Join(tmp, "runtime.json"), runtimeHealth()); err != nil {
		return fail(err)
	}
	info.Files = append(info.Files, "runtime.json")

	// Manifest last: its file inventory covers everything that landed.
	manifest := struct {
		BundleInfo
		Breach Breach `json:"breach"`
	}{info, b}
	if err := writeJSONFile(filepath.Join(tmp, "manifest.json"), manifest); err != nil {
		return fail(err)
	}
	info.Files = append(info.Files, "manifest.json")

	if err := os.Rename(tmp, final); err != nil {
		return fail(err)
	}
	return info, nil
}

// writeCPUProfile samples a CPU profile into path for cpuProfileFor.
func (c *Capturer) writeCPUProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		_ = f.Close()
		_ = os.Remove(path)
		return err
	}
	c.sleep(cpuProfileFor)
	pprof.StopCPUProfile()
	return f.Close()
}

// writeTo streams fn into a freshly created file; the Close error is
// reported (a short write on a full disk surfaces there).
func writeTo(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = fn(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeJSONFile marshals v into path, indented for human triage.
func writeJSONFile(path string, v any) error {
	return writeTo(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	})
}

// runtimeHealth is the runtime.json payload: the Go runtime vitals a triage
// starts from.
func runtimeHealth() map[string]any {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return map[string]any{
		"goroutines":        runtime.NumGoroutine(),
		"gomaxprocs":        runtime.GOMAXPROCS(0),
		"num_cpu":           runtime.NumCPU(),
		"go_version":        runtime.Version(),
		"heap_alloc_bytes":  ms.HeapAlloc,
		"heap_sys_bytes":    ms.HeapSys,
		"heap_objects":      ms.HeapObjects,
		"total_alloc_bytes": ms.TotalAlloc,
		"num_gc":            ms.NumGC,
		"gc_pause_total_s":  float64(ms.PauseTotalNs) / 1e9,
		"gc_cpu_fraction":   ms.GCCPUFraction,
		"next_gc_bytes":     ms.NextGC,
	}
}
