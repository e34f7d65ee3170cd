// Package metrics is the dependency-free instrumentation layer for the
// simulator and the routing daemon. It provides atomic counters, gauges,
// histograms with fixed log-spaced buckets, and phase timers, collected in a
// Registry that renders snapshots in the Prometheus text exposition format
// or as JSON.
//
// Two properties make it safe to wire into hot paths unconditionally:
//
//   - Nil safety: every method on a nil instrument (and on a nil *Registry)
//     is a no-op, so an owner can leave an instrument nil when nothing
//     observes it, at the cost of a nil check.
//   - Concurrency safety: all updates are lock-free atomics; snapshots may
//     race with updates and are only point-in-time consistent per value,
//     which is the usual Prometheus contract.
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing integer. The zero value is ready;
// a nil *Counter is a no-op.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float value that can go up and down. A nil *Gauge is a no-op.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets (upper bounds, with an
// implicit +Inf overflow bucket) and tracks the total sum and count. A nil
// *Histogram is a no-op.
//
// A histogram can also be windowed by one collector (package timeseries):
// Claim switches on per-window sum/min/max tracking, and the collector reads
// bucket counts and takes that window state at each seal. Count and buckets
// stay cumulative either way, so one histogram backs both /metrics and the
// windowed curves.
type Histogram struct {
	bounds  []float64 // strictly increasing upper bounds (le semantics)
	counts  []atomic.Int64
	n       atomic.Int64
	sumBits atomic.Uint64

	// Window state, kept only once claimed: the sum and extrema of samples
	// folded in since the previous TakeWindow (min +Inf, max −Inf when none).
	claimed atomic.Bool
	winSum  atomic.Uint64
	winMin  atomic.Uint64
	winMax  atomic.Uint64
}

// NewHistogram builds a standalone histogram (outside any registry) over the
// given strictly increasing upper bounds; nil bounds default to time buckets.
func NewHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = TimeBuckets()
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("metrics: histogram bounds not strictly increasing")
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// addFloat atomically adds d to the float64 stored in bits.
func addFloat(bits *atomic.Uint64, d float64) {
	for {
		old := bits.Load()
		if bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// foldExtreme atomically replaces the float64 in bits by v when better(v,
// current) holds.
func foldExtreme(bits *atomic.Uint64, v float64, better func(a, b float64) bool) {
	for {
		old := bits.Load()
		if !better(v, math.Float64frombits(old)) || bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

func less(a, b float64) bool    { return a < b }
func greater(a, b float64) bool { return a > b }

// Observe folds one sample into the histogram. The window state is folded
// before the bucket count, so a sample a collector counts in a window has
// its extrema in that window or the one before (see TakeWindow).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	if h.claimed.Load() {
		addFloat(&h.winSum, v)
		foldExtreme(&h.winMin, v, less)
		foldExtreme(&h.winMax, v, greater)
	}
	h.counts[sort.SearchFloat64s(h.bounds, v)].Add(1)
	h.n.Add(1)
	addFloat(&h.sumBits, v)
}

// Claim switches on window tracking for the one collector that windows h;
// a second claim panics, since two collectors would steal each other's
// window state.
func (h *Histogram) Claim() {
	if !h.claimed.CompareAndSwap(false, true) {
		panic("metrics: histogram already windowed by another collector")
	}
	h.TakeWindow()
}

// TakeWindow returns the sum, min and max of the samples observed since the
// previous call and starts a fresh window (min is +Inf and max −Inf when
// there were none). Samples racing with the call land in one window or the
// next, never in both and never in neither.
func (h *Histogram) TakeWindow() (sum, lo, hi float64) {
	sum = math.Float64frombits(h.winSum.Swap(0))
	lo = math.Float64frombits(h.winMin.Swap(math.Float64bits(math.Inf(1))))
	hi = math.Float64frombits(h.winMax.Swap(math.Float64bits(math.Inf(-1))))
	return sum, lo, hi
}

// Bounds returns the bucket upper bounds (shared; do not modify).
func (h *Histogram) Bounds() []float64 { return h.bounds }

// LoadCounts copies the per-bucket (not cumulative) counts, overflow bucket
// last, into dst, which must hold len(Bounds())+1 entries.
func (h *Histogram) LoadCounts(dst []int64) {
	for i := range h.counts {
		dst[i] = h.counts[i].Load()
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Mean returns Sum/Count (0 when empty).
func (h *Histogram) Mean() float64 {
	if n := h.Count(); n > 0 {
		return h.Sum() / float64(n)
	}
	return 0
}

// Bucket is one cumulative histogram bucket: the count of observations ≤ LE.
type Bucket struct {
	LE    float64 `json:"le"`
	Count int64   `json:"count"`
}

// MarshalJSON renders LE as a string so the +Inf overflow bucket stays
// valid JSON (encoding/json rejects infinite numbers).
func (b Bucket) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf(`{"le":%q,"count":%d}`, fmtFloat(b.LE), b.Count)), nil
}

// UnmarshalJSON parses the string-encoded LE back ("+Inf" included).
func (b *Bucket) UnmarshalJSON(data []byte) error {
	var raw struct {
		LE    string `json:"le"`
		Count int64  `json:"count"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	le, err := strconv.ParseFloat(raw.LE, 64)
	if err != nil {
		return fmt.Errorf("metrics: bad bucket bound %q: %w", raw.LE, err)
	}
	b.LE, b.Count = le, raw.Count
	return nil
}

// Buckets returns the cumulative buckets, ending with the +Inf bucket whose
// count equals Count().
func (h *Histogram) Buckets() []Bucket {
	if h == nil {
		return nil
	}
	out := make([]Bucket, len(h.counts))
	cum := int64(0)
	for i := range h.counts {
		cum += h.counts[i].Load()
		le := math.Inf(1)
		if i < len(h.bounds) {
			le = h.bounds[i]
		}
		out[i] = Bucket{LE: le, Count: cum}
	}
	return out
}

// Quantile returns an upper-bound estimate of the q-quantile (0 ≤ q ≤ 1):
// the smallest bucket bound whose cumulative count covers q. Returns +Inf
// when the quantile lands in the overflow bucket, 0 when empty.
func (h *Histogram) Quantile(q float64) float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	counts := make([]int64, len(h.counts))
	h.LoadCounts(counts)
	return BucketQuantile(h.bounds, counts, n, q)
}

// BucketQuantile walks per-bucket counts (one per bound plus the overflow
// bucket, as LoadCounts fills them) of n observations and returns the
// smallest bound whose cumulative count covers rank ⌈q·n⌉ (at least 1):
// +Inf when that rank lands in the overflow bucket or the counts never
// reach it.
func BucketQuantile(bounds []float64, counts []int64, n int64, q float64) float64 {
	rank := max(int64(math.Ceil(q*float64(n))), 1)
	cum := int64(0)
	for i, c := range counts {
		cum += c
		if cum >= rank {
			if i < len(bounds) {
				return bounds[i]
			}
			break
		}
	}
	return math.Inf(1)
}

// Timer observes phase durations (in seconds) into a histogram. Use as
//
//	defer t.Stop(t.Start())
//
// or split Start/Stop around the phase. A nil *Timer is a no-op and its
// Start avoids the clock read entirely.
type Timer struct {
	h *Histogram
}

// Start returns the phase start time (zero for a nil timer).
func (t *Timer) Start() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// Stop records the elapsed time since start. A zero start (nil timer at
// Start time) records nothing.
func (t *Timer) Stop(start time.Time) {
	if t == nil || start.IsZero() {
		return
	}
	t.h.Observe(time.Since(start).Seconds())
}

// Observe records an already-measured duration — the hook for callers that
// stamp timestamps themselves (stage attribution accumulates nanoseconds in
// request state and folds them in once at the end of the request).
func (t *Timer) Observe(d time.Duration) {
	if t == nil || d < 0 {
		return
	}
	t.h.Observe(d.Seconds())
}

// NewTimer builds a standalone timer (outside any registry) over the default
// time buckets.
func NewTimer() *Timer { return &Timer{h: NewHistogram(TimeBuckets())} }

// Hist exposes the underlying histogram (nil for a nil timer).
func (t *Timer) Hist() *Histogram {
	if t == nil {
		return nil
	}
	return t.h
}

// LogBuckets returns log-spaced upper bounds from lo up to and including the
// first bound ≥ hi, with perDecade bounds per factor of 10. lo must be
// positive and hi > lo.
func LogBuckets(lo, hi float64, perDecade int) []float64 {
	if lo <= 0 || hi <= lo || perDecade < 1 {
		panic("metrics: invalid log bucket spec")
	}
	ratio := math.Pow(10, 1/float64(perDecade))
	var out []float64
	for b := lo; ; b *= ratio {
		out = append(out, b)
		if b >= hi {
			return out
		}
	}
}

// TimeBuckets is the default duration bucketing: 1µs → 10s at 9 bounds per
// decade, so a bucketed quantile over-estimates the exact one by at most
// 10^(1/9) ≈ 1.29×.
func TimeBuckets() []float64 { return LogBuckets(1e-6, 10, 9) }

// metric kinds in exposition output.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

type metric struct {
	name string
	help string
	kind string
	c    *Counter
	g    *Gauge
	h    *Histogram
}

// Registry names and collects instruments. Each owner builds its own
// instruments and publishes them; a nil *Registry ignores every Publish, so
// a single conditional at setup time turns exposition on or off.
type Registry struct {
	mu     sync.Mutex
	byName map[string]*metric
	order  []*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*metric{}}
}

func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// Publish exposes an instrument the caller built — a *Counter, *Gauge,
// *Histogram or *Timer — under name. Publishing again under a name replaces
// the earlier instrument in place (same kind required), so a component
// rebuilt in the same process takes over its series without reordering the
// exposition. A nil registry ignores the call.
func (r *Registry) Publish(name, help string, inst any) {
	if r == nil {
		return
	}
	if !validName(name) {
		panic("metrics: invalid metric name " + strconv.Quote(name))
	}
	m := &metric{name: name, help: help}
	switch v := inst.(type) {
	case *Counter:
		m.kind, m.c = kindCounter, v
	case *Gauge:
		m.kind, m.g = kindGauge, v
	case *Histogram:
		m.kind, m.h = kindHistogram, v
	case *Timer:
		m.kind, m.h = kindHistogram, v.Hist()
	default:
		panic(fmt.Sprintf("metrics: cannot publish %T", inst))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	old, ok := r.byName[name]
	if ok && old.kind != m.kind {
		panic(fmt.Sprintf("metrics: %s re-published as %s (was %s)", name, m.kind, old.kind))
	}
	r.byName[name] = m
	if !ok {
		r.order = append(r.order, m)
		return
	}
	// Swap the entry rather than mutate it: renderers read entries unlocked.
	for i, o := range r.order {
		if o == old {
			r.order[i] = m
		}
	}
}

// snapshotOrder returns the metrics in registration order.
func (r *Registry) snapshotOrder() []*metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*metric(nil), r.order...)
}

func fmtFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4). A nil registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	var b strings.Builder
	for _, m := range r.snapshotOrder() {
		if m.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", m.name, escapeHelp(m.help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", m.name, m.kind)
		switch m.kind {
		case kindCounter:
			fmt.Fprintf(&b, "%s %d\n", m.name, m.c.Value())
		case kindGauge:
			fmt.Fprintf(&b, "%s %s\n", m.name, fmtFloat(m.g.Value()))
		case kindHistogram:
			for _, bk := range m.h.Buckets() {
				fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", m.name, fmtFloat(bk.LE), bk.Count)
			}
			fmt.Fprintf(&b, "%s_sum %s\n", m.name, fmtFloat(m.h.Sum()))
			fmt.Fprintf(&b, "%s_count %d\n", m.name, m.h.Count())
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// MetricSnapshot is the JSON form of one metric.
type MetricSnapshot struct {
	Name string `json:"name"`
	Type string `json:"type"`
	Help string `json:"help,omitempty"`
	// Counter/gauge value.
	Value *float64 `json:"value,omitempty"`
	// Histogram summary.
	Count   *int64   `json:"count,omitempty"`
	Sum     *float64 `json:"sum,omitempty"`
	Mean    *float64 `json:"mean,omitempty"`
	P50     *float64 `json:"p50,omitempty"`
	P99     *float64 `json:"p99,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// fptr returns a pointer to v, or nil when v is not finite — non-finite
// values are omitted from the JSON snapshot rather than breaking it.
func fptr(v float64) *float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return nil
	}
	return &v
}

// Snapshot captures all metrics in registration order. A nil registry
// yields nil.
func (r *Registry) Snapshot() []MetricSnapshot {
	if r == nil {
		return nil
	}
	var out []MetricSnapshot
	for _, m := range r.snapshotOrder() {
		s := MetricSnapshot{Name: m.name, Type: m.kind, Help: m.help}
		switch m.kind {
		case kindCounter:
			s.Value = fptr(float64(m.c.Value()))
		case kindGauge:
			s.Value = fptr(m.g.Value())
		case kindHistogram:
			n := m.h.Count()
			s.Count = &n
			s.Sum = fptr(m.h.Sum())
			s.Mean = fptr(m.h.Mean())
			s.P50 = fptr(m.h.Quantile(0.5))
			s.P99 = fptr(m.h.Quantile(0.99))
			s.Buckets = m.h.Buckets()
		}
		out = append(out, s)
	}
	return out
}

// WriteJSON renders the snapshot as an indented JSON array.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// WriteFile writes the registry to path, choosing the format by suffix:
// ".json" → JSON snapshot, anything else → Prometheus text exposition.
// A nil registry still writes a valid (empty) document.
func (r *Registry) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".json") {
		err = r.WriteJSON(f)
	} else {
		err = r.WritePrometheus(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
