package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"sync"
	"time"
)

// DefaultCapacity is the flight-recorder ring size when Config.Capacity is 0.
const DefaultCapacity = 256

// FlightRecorder is a fixed-size ring of finished request traces: the last
// N requests are always available for a dump, like an aircraft flight
// recorder. Snapshot/Find/Dump are safe for concurrent use with the traces
// landing. The ring owns its traces: Trace.Finish hands a trace over, an
// evicted trace goes onto a free list that Start draws from, and readers get
// deep copies, so no reader ever sees a buffer that is being recycled. A
// reader holds the lock only to pin the traces it copies; the copying runs
// after it is released.
type FlightRecorder struct {
	mu    sync.Mutex
	buf   []*Trace // ring storage, len == capacity
	next  int      // next write position
	total int64    // traces ever added
	free  []*Trace // evicted buffers awaiting reuse by Tracer.Start
}

// NewFlightRecorder returns a recorder retaining the last capacity traces
// (DefaultCapacity if capacity <= 0).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &FlightRecorder{buf: make([]*Trace, capacity)}
}

// add swaps a finished trace into the next ring slot and moves the evicted
// trace onto the free list, unless a reader has it pinned; the recorder owns
// t from then on. With withCopy it also returns a reader's copy of t.
func (f *FlightRecorder) add(t *Trace, withCopy bool) *Trace {
	f.mu.Lock()
	if old := f.buf[f.next]; old != nil {
		if old.pins > 0 {
			old.evicted = true
		} else {
			f.free = append(f.free, old)
		}
	}
	f.buf[f.next] = t
	f.next = (f.next + 1) % len(f.buf)
	f.total++
	if withCopy {
		t.pins++
	}
	f.mu.Unlock()
	if !withCopy {
		return nil
	}
	c := t.readerCopy()
	f.unpin(t)
	return c
}

// unpin releases readers' pins, moving a trace evicted while pinned onto
// the free list once its last pin is gone.
func (f *FlightRecorder) unpin(ts ...*Trace) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, t := range ts {
		t.pins--
		if t.pins == 0 && t.evicted {
			t.evicted = false
			f.free = append(f.free, t)
		}
	}
}

// take pops an evicted buffer off the free list, or returns nil when there
// is none (the ring has not wrapped yet).
func (f *FlightRecorder) take() *Trace {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := len(f.free)
	if n == 0 {
		return nil
	}
	t := f.free[n-1]
	f.free[n-1] = nil
	f.free = f.free[:n-1]
	return t
}

// Len returns the number of retained traces (≤ capacity).
func (f *FlightRecorder) Len() int {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.total < int64(len(f.buf)) {
		return int(f.total)
	}
	return len(f.buf)
}

// Total returns the number of traces ever recorded, including evicted ones.
func (f *FlightRecorder) Total() int64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.total
}

// Snapshot returns copies of the retained traces, oldest first.
func (f *FlightRecorder) Snapshot() []*Trace {
	return f.copies(func(*Trace) bool { return true })
}

// copies returns reader's copies of the retained traces that keep reports
// true, oldest first. The traces are pinned under the lock and copied after
// it is released.
func (f *FlightRecorder) copies(keep func(*Trace) bool) []*Trace {
	if f == nil {
		return nil
	}
	n := len(f.buf) // fixed at construction
	pinned := make([]*Trace, 0, n)
	f.mu.Lock()
	start := f.next // oldest slot once the ring has wrapped
	if f.total < int64(n) {
		start = 0
	}
	for i := 0; i < n; i++ {
		if t := f.buf[(start+i)%n]; t != nil && keep(t) {
			t.pins++
			pinned = append(pinned, t)
		}
	}
	f.mu.Unlock()
	if len(pinned) == 0 {
		return nil
	}
	out := make([]*Trace, len(pinned))
	for i, t := range pinned {
		out[i] = t.readerCopy()
	}
	f.unpin(pinned...)
	return out
}

// Find returns a copy of the retained trace with the given request ID, or
// nil.
func (f *FlightRecorder) Find(req int64) *Trace {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	var found *Trace
	for _, t := range f.buf {
		if t != nil && t.Req == req {
			t.pins++
			found = t
			break
		}
	}
	f.mu.Unlock()
	if found == nil {
		return nil
	}
	c := found.readerCopy()
	f.unpin(found)
	return c
}

// traceJSON is the JSONL wire form of one trace. Attributes render as maps
// so a dump joins naturally against other JSONL streams (the simulator
// event log keys the same request IDs in its "req" field).
type traceJSON struct {
	Req     int64          `json:"req"`
	Kind    string         `json:"kind"`
	S       int            `json:"s"`
	T       int            `json:"t"`
	Start   time.Time      `json:"start"`
	DurSec  float64        `json:"dur_s"`
	Status  string         `json:"status"`
	Attrs   map[string]any `json:"attrs,omitempty"`
	Spans   []spanJSON     `json:"spans,omitempty"`
	Payload any            `json:"payload,omitempty"`
}

type spanJSON struct {
	Name   string         `json:"name"`
	T0Sec  float64        `json:"t0_s"`
	DurSec float64        `json:"dur_s"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// attrMap renders attributes for the wire. encoding/json refuses
// non-finite floats, so ±Inf and NaN (an unbounded MinCog bottleneck, the
// unfiltered fallback threshold, an infeasible first-fit cost) render as
// the strings "+Inf", "-Inf" and "NaN".
func attrMap(attrs []Attr) map[string]any {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]any, len(attrs))
	for _, a := range attrs {
		if a.Kind == AttrFloat && (math.IsInf(a.F, 0) || math.IsNaN(a.F)) {
			m[a.Key] = strconv.FormatFloat(a.F, 'g', -1, 64)
			continue
		}
		m[a.Key] = a.Value()
	}
	return m
}

// wire projects a trace into its JSONL form.
func wire(t *Trace) traceJSON {
	j := traceJSON{
		Req:     t.Req,
		Kind:    t.Kind,
		S:       t.S,
		T:       t.T,
		Start:   t.Start,
		DurSec:  t.End.Sub(t.Start).Seconds(),
		Status:  t.Status,
		Attrs:   attrMap(t.Attrs),
		Payload: t.Payload,
	}
	if p, ok := t.Payload.(OwnedPayload); ok {
		j.Payload = p.Render(t)
	}
	for i := range t.Spans {
		sp := &t.Spans[i]
		j.Spans = append(j.Spans, spanJSON{
			Name:   sp.Name,
			T0Sec:  sp.T0.Seconds(),
			DurSec: sp.Dur().Seconds(),
			Attrs:  attrMap(sp.Attrs),
		})
	}
	return j
}

// Dump writes the retained traces as JSONL, oldest first. The snapshot is
// taken once up front, so a dump is consistent even while requests keep
// landing. The error must be checked: a partial dump is silent data loss
// (wdmlint errcheck-lite enforces this).
func (f *FlightRecorder) Dump(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, t := range f.Snapshot() {
		if err := enc.Encode(wire(t)); err != nil {
			return fmt.Errorf("obs: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("obs: %w", err)
	}
	return nil
}

// DumpReq writes only the retained traces with the given request ID as
// JSONL — the `?req=` filter behind /debug/flight, so one slow HTTP response
// (whose X-Wdmd-Req header carries the ID) joins to its spans in one curl.
// Like Dump, the error must be checked. It reports whether any trace matched.
func (f *FlightRecorder) DumpReq(w io.Writer, req int64) (bool, error) {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	found := false
	for _, t := range f.copies(func(t *Trace) bool { return t.Req == req }) {
		found = true
		if err := enc.Encode(wire(t)); err != nil {
			return found, fmt.Errorf("obs: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return found, fmt.Errorf("obs: %w", err)
	}
	return found, nil
}

// DumpFile writes the retained traces as JSONL to path (truncating it).
func (f *FlightRecorder) DumpFile(path string) error {
	fh, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs: %w", err)
	}
	err = f.Dump(fh)
	if cerr := fh.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("obs: %w", cerr)
	}
	return err
}
