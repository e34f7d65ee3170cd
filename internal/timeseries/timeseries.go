// Package timeseries is the temporal telemetry layer: where package metrics
// answers "how is the engine doing in aggregate" and package obs answers
// "why did request #1374 get an expensive pair", this package answers "how
// did latency, blocking and load evolve over the run" — the time-series
// form of the paper's §4 claim that folding load into RWA keeps the network
// below the reconfiguration threshold longer.
//
// A Collector accumulates nothing on the request path. It windows
// instruments it is handed — metrics histograms and counters — and reads
// them when its owner advances time past a window's end (event sim-time in
// the simulator, elapsed wall-clock seconds in the daemon): per-window
// quantiles (p50/p95/p99) from the change in cumulative bucket counts,
// windowed rates, guarded ratios (empty window ⇒ 0, never NaN), and
// min/max/mean of collector-owned sampled gauges. One set of instruments therefore backs /metrics and the
// windowed curves, and they cannot disagree. Sealed windows land in a
// bounded ring (O(retention) memory no matter how long the run is) and,
// optionally, stream to a Sink (JSONL/CSV export), so a 1M-request soak
// retains recent history for live probes while the full curve goes to disk.
//
// Concurrency contract: the windowed instruments are lock-free and may be
// written from any goroutine; one owner goroutine drives Advance/Seal (the
// simulator loop, or a daemon's ticker); gauges may be set from any
// goroutine under the collector mutex; Snapshots, Len and the counters are
// safe to call from any goroutine (debug HTTP handlers scrape mid-run).
// Nil safety matches package metrics: every method on a nil *Collector and
// on a nil *Gauge is a no-op, so instrumented code calls unconditionally.
package timeseries

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/metrics"
)

// retention is how many sealed windows the ring keeps. Older windows are
// evicted from the ring but were already streamed to the Sink, if one is
// set.
const retention = 1024

// Sink consumes sealed windows as they close — the streaming export hook.
// WriteSnapshot runs on the collector's owner goroutine; the snapshot is
// immutable and may be retained.
type Sink interface {
	WriteSnapshot(*Snapshot) error
}

// Collector cuts windows over the instruments registered with it. Create
// with New; a nil *Collector is permanently off and hands out nil gauges.
type Collector struct {
	mu     sync.Mutex
	window float64

	hists  []*histSource
	rates  []*rateSource
	ratios []*ratioSource
	gauges []*gaugeSeries

	onSeal   []func(t float64)
	onSealed []func(*Snapshot)
	sink     Sink
	sinkErr  error

	curIdx      uint64
	ring        []Snapshot
	ringHead    int // next slot to overwrite
	ringLen     int
	sealedTotal uint64
}

// New returns a collector cutting windows of window seconds, with window 0
// ([0, window)) open. It panics on a non-positive or non-finite window.
func New(window float64) *Collector {
	if window <= 0 || math.IsInf(window, 0) || math.IsNaN(window) {
		panic("timeseries: window width must be positive and finite")
	}
	return &Collector{window: window, ring: make([]Snapshot, retention)}
}

// Window returns the configured window width (0 on nil).
func (c *Collector) Window() float64 {
	if c == nil {
		return 0
	}
	return c.window
}

func (c *Collector) windowIndex(t float64) uint64 {
	if t <= 0 {
		return 0
	}
	return uint64(t / c.window)
}

func checkName(name string, haveInstrument bool) {
	if name == "" {
		panic("timeseries: empty series name")
	}
	if !haveInstrument {
		panic("timeseries: nil instrument for series " + name)
	}
}

func checkSame(name string, same bool) {
	if !same {
		panic("timeseries: series " + name + " already windows another instrument")
	}
}

// Histogram windows h as the series named name: per window it reports the
// count, sum, mean, min and max of the samples observed since the previous
// seal, and bucketed p50/p95/p99 clamped to that max. h is claimed for
// this collector (a histogram can be windowed by at most one). Registering
// the same histogram under the same name again is a no-op; another
// instrument under a taken name panics.
func (c *Collector) Histogram(name string, h *metrics.Histogram) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range c.hists {
		if s.name == name {
			checkSame(name, s.h == h)
			return
		}
	}
	checkName(name, h != nil)
	c.hists = append(c.hists, newHistSource(name, h))
}

// Rate windows counter n as the series named name; each sealed window
// reports the counter's change and that change divided by the window width.
// Re-registration follows Histogram.
func (c *Collector) Rate(name string, n *metrics.Counter) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range c.rates {
		if s.name == name {
			checkSame(name, s.c == n)
			return
		}
	}
	checkName(name, n != nil)
	c.rates = append(c.rates, &rateSource{name: name, c: n, prev: n.Value()})
}

// Ratio windows a hit/miss counter pair as the series named name: per
// window num = Δhit and den = Δhit + Δmiss, reported as 0 (never NaN) when
// the window saw neither. Re-registration follows Histogram.
func (c *Collector) Ratio(name string, hit, miss *metrics.Counter) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range c.ratios {
		if s.name == name {
			checkSame(name, s.hit == hit && s.miss == miss)
			return
		}
	}
	checkName(name, hit != nil && miss != nil)
	c.ratios = append(c.ratios, &ratioSource{
		name: name, hit: hit, miss: miss, prevHit: hit.Value(), prevMiss: miss.Value()})
}

// Gauge registers (or returns) the windowed gauge named name; each sealed
// window reports the last/min/max/mean of the values set during it.
func (c *Collector) Gauge(name string) *Gauge {
	if c == nil {
		return nil
	}
	checkName(name, true)
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range c.gauges {
		if s.name == name {
			return &Gauge{c: c, s: s}
		}
	}
	s := &gaugeSeries{name: name}
	c.gauges = append(c.gauges, s)
	return &Gauge{c: c, s: s}
}

// OnSeal registers a probe that runs once per window, just before the
// window closes, with the window's nominal end time. Probes run on the
// owner goroutine and may set gauges — the values land in the closing
// window — which is how per-window network-state sampling (link loads,
// fragmentation, active lightpaths) hooks in. Register probes before the
// run starts.
func (c *Collector) OnSeal(fn func(t float64)) {
	if c == nil || fn == nil {
		return
	}
	c.mu.Lock()
	c.onSeal = append(c.onSeal, fn)
	c.mu.Unlock()
}

// OnSealed registers an observer that runs once per window, just after the
// window has sealed, with the immutable sealed snapshot. Unlike OnSeal
// probes (which feed values *into* the closing window), OnSealed observers
// consume finished windows — the hook the SLO watchdog evaluates burn rates
// through. Observers run unlocked on the sealing goroutine and may call any
// collector method except Advance/Seal. Register before the run starts.
func (c *Collector) OnSealed(fn func(*Snapshot)) {
	if c == nil || fn == nil {
		return
	}
	c.mu.Lock()
	c.onSealed = append(c.onSealed, fn)
	c.mu.Unlock()
}

// SetSink streams every subsequently sealed window to s. The first write
// error is retained (SinkErr) and stops further writes: a dead sink costs
// one failure, not one per window.
func (c *Collector) SetSink(s Sink) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.sink = s
	c.mu.Unlock()
}

// SinkErr returns the first error the sink reported, or nil. Non-nil means
// the exported series on disk is incomplete even though the run finished.
func (c *Collector) SinkErr() error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sinkErr
}

// Advance rolls the collector forward to time t, sealing every window whose
// end lies at or before t; a t inside the open window or earlier seals
// nothing, so windows never move backwards. The owner goroutine calls it
// with each event timestamp (sim-time) or periodically with the seconds
// elapsed since it built the collector (wall-clock). Gaps emit empty
// windows, so exported curves stay continuous through idle stretches.
func (c *Collector) Advance(t float64) {
	if c == nil {
		return
	}
	target := c.windowIndex(t)
	for {
		c.mu.Lock()
		open := c.curIdx
		c.mu.Unlock()
		if target <= open {
			return
		}
		c.sealNext()
	}
}

// Seal closes the currently open window even though time has not reached
// its end — the end-of-run flush, so a partial final window still
// reaches the ring and the sink. Probes run first, as on a normal seal.
func (c *Collector) Seal() {
	if c == nil {
		return
	}
	c.sealNext()
}

// sealNext seals the open window: the OnSeal probes, then sealLocked, then
// the OnSealed observers. Probes and observers run unlocked so they can use
// the public instrument API; the single-owner contract keeps this safe.
func (c *Collector) sealNext() {
	c.mu.Lock()
	sealEnd := float64(c.curIdx+1) * c.window
	probes := c.onSeal
	c.mu.Unlock()
	for _, fn := range probes {
		fn(sealEnd)
	}
	c.mu.Lock()
	snap := c.sealLocked()
	observers := c.onSealed
	c.mu.Unlock()
	for _, fn := range observers {
		fn(snap)
	}
}

// sealLocked snapshots the open window into the ring (and sink) and opens
// the next one, returning the sealed snapshot for the OnSealed observers.
// Caller holds c.mu.
//
//wdm:coldpath window sealing runs once per telemetry window, amortized over the arrivals in it
func (c *Collector) sealLocked() *Snapshot {
	snap := Snapshot{
		Window: c.curIdx,
		Start:  float64(c.curIdx) * c.window,
		End:    float64(c.curIdx+1) * c.window,
	}
	for _, s := range c.hists {
		snap.Hists = append(snap.Hists, s.seal())
	}
	for _, s := range c.rates {
		snap.Rates = append(snap.Rates, s.seal(c.window))
	}
	for _, s := range c.ratios {
		snap.Ratios = append(snap.Ratios, s.seal())
	}
	for _, s := range c.gauges {
		snap.Gauges = append(snap.Gauges, s.value())
		s.reset()
	}
	// Byte-stable export ordering regardless of registration order.
	sort.Slice(snap.Hists, func(i, j int) bool { return snap.Hists[i].Name < snap.Hists[j].Name })
	sort.Slice(snap.Rates, func(i, j int) bool { return snap.Rates[i].Name < snap.Rates[j].Name })
	sort.Slice(snap.Ratios, func(i, j int) bool { return snap.Ratios[i].Name < snap.Ratios[j].Name })
	sort.Slice(snap.Gauges, func(i, j int) bool { return snap.Gauges[i].Name < snap.Gauges[j].Name })

	c.ring[c.ringHead] = snap
	c.ringHead = (c.ringHead + 1) % len(c.ring)
	if c.ringLen < len(c.ring) {
		c.ringLen++
	}
	c.sealedTotal++
	c.curIdx++
	if c.sink != nil && c.sinkErr == nil {
		if err := c.sink.WriteSnapshot(&snap); err != nil {
			c.sinkErr = fmt.Errorf("timeseries: sink: %w", err)
		}
	}
	return &snap
}

// TotalSealed returns how many windows have been sealed over the
// collector's lifetime (including ones since evicted from the ring).
func (c *Collector) TotalSealed() uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sealedTotal
}

// Evicted returns how many sealed windows have aged out of the ring.
func (c *Collector) Evicted() uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sealedTotal - uint64(c.ringLen)
}

// Snapshots returns up to last retained windows, oldest first (all retained
// windows when last <= 0). The returned snapshots are copies safe to hold.
func (c *Collector) Snapshots(last int) []Snapshot {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.ringLen
	if last > 0 && last < n {
		n = last
	}
	if n == 0 {
		return nil
	}
	out := make([]Snapshot, n)
	// ringHead is the next overwrite slot, i.e. one past the newest entry.
	start := (c.ringHead - n + len(c.ring)) % len(c.ring)
	for i := 0; i < n; i++ {
		out[i] = c.ring[(start+i)%len(c.ring)]
	}
	return out
}
