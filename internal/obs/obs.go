// Package obs is the request-scoped tracing layer of the routing engine: a
// span tracer that records what one (s, t) request actually did — which
// auxiliary-graph reweights ran, whether the skeleton cache hit, how hard
// Suurballe searched, which G_i the Lemma 2 refinement walked — plus a
// fixed-size flight recorder that retains the last N request traces for
// post-hoc dumps.
//
// Where package metrics answers "how are the simulator and the daemon doing
// in aggregate", package obs answers "why did request #1374 get an expensive
// pair". The trace is the one record of the routing phases: no metric series
// repeats the reweight, Suurballe, refinement or MinCog spans. A dump renders
// a non-finite float attribute (L* = +Inf for a blocked MinCog request) as
// the string "+Inf", "-Inf" or "NaN", which encoding/json accepts. The same
// two properties that make metrics safe in hot paths hold here:
//
//   - Nil safety: every method on a nil *Tracer and a nil *Trace is a no-op,
//     so instrumented code calls unconditionally. A nil tracer hands out
//     nil traces, which means tracing off costs exactly one nil check per
//     request and zero allocations (asserted by the regression test in
//     internal/core).
//   - Concurrency: the flight recorder is safe for concurrent Finish/Dump/Find
//     (a debug HTTP handler dumps while the simulator records). A *Trace
//     itself is single-goroutine like the Router that writes it.
//
// The flight recorder owns its trace buffers. Once the ring has wrapped,
// Start reuses the buffer the ring last evicted, and a trace records into
// flat span and attribute records whose storage is reused by capacity, so
// an enabled tracer allocates nothing per request in steady state and the
// retained ring holds a few small objects per trace. The writer hands its
// trace over at Finish and must not touch it afterwards: the recorder may
// recycle it at any later Start. Readers never see a recorder's buffer —
// Find, Snapshot, Dump, DumpReq and OnFailure get deep copies, and only
// those copies carry the exported Spans and Attrs. A reader pins the traces
// it copies under the recorder's lock and copies them after releasing it;
// an evicted trace is recycled only once no reader has it pinned. A payload that owns storage
// (OwnedPayload) is handed back to its producer through the recycled trace
// (Recycled) and deep-copied into readers' copies.
package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// Statuses a request trace can finish with.
const (
	StatusOK      = "ok"      // a disjoint pair was found and mapped
	StatusBlocked = "blocked" // no feasible pair (request blocked/dropped)
	StatusError   = "error"   // internal failure (defensive paths)
)

// Config parameterises a Tracer.
type Config struct {
	// Capacity is the flight-recorder ring size (DefaultCapacity if 0).
	Capacity int
	// OnFailure, when non-nil, runs once — on the first trace that finishes
	// with a status other than StatusOK — with the recorder and a reader's
	// copy of that trace, taken while the trace was in the ring. Typical
	// use: dump the ring to a file so the window around the first blocked
	// request survives even if the process dies later.
	OnFailure func(*FlightRecorder, *Trace)
}

// Tracer hands out request traces. Tracing is on exactly when a tracer is
// attached: a nil *Tracer is off, a non-nil one always records.
type Tracer struct {
	reqID atomic.Int64
	fr    *FlightRecorder

	failed    atomic.Bool // OnFailure has fired
	onFailure func(*FlightRecorder, *Trace)
}

// New returns a Tracer with a flight recorder of cfg.Capacity.
func New(cfg Config) *Tracer {
	return &Tracer{
		fr:        NewFlightRecorder(cfg.Capacity),
		onFailure: cfg.OnFailure,
	}
}

// Flight returns the tracer's flight recorder (nil for a nil tracer).
func (t *Tracer) Flight() *FlightRecorder {
	if t == nil {
		return nil
	}
	return t.fr
}

// Start opens a trace for one routing request with a fresh monotonic ID
// (IDs start at 1; 0 is never issued, so a zero Req field in correlated
// logs is distinguishable from the first request). Returns nil — and
// performs no allocation — when the tracer is nil. The trace is
// the buffer the flight recorder last evicted, or a new one while the ring
// has not wrapped. The caller must Finish the trace to land it in the
// flight recorder.
//
//wdm:coldpath nil-safe tracing no-op unless a diagnostic tracer is enabled
func (t *Tracer) Start(kind string, s, d int) *Trace {
	if t == nil {
		return nil
	}
	tc := t.fr.take()
	if tc == nil {
		tc = &Trace{}
	} else {
		tc.reset()
	}
	tc.Req = t.reqID.Add(1)
	tc.Kind = kind
	tc.S, tc.T = s, d
	tc.Start = time.Now()
	tc.tr = t
	return tc
}

// AttrKind tags which field of an Attr carries the value.
type AttrKind uint8

// Attribute kinds.
const (
	AttrInt AttrKind = iota
	AttrFloat
	AttrStr
	AttrBool
)

// Attr is one typed key/value attribute on a span or a trace. Exactly one
// of I/F/S is meaningful, selected by Kind (AttrBool stores 0/1 in I).
type Attr struct {
	Key  string
	Kind AttrKind
	I    int64
	F    float64
	S    string
}

// Value returns the attribute's value as an any (for JSON rendering).
func (a Attr) Value() any {
	switch a.Kind {
	case AttrFloat:
		return a.F
	case AttrStr:
		return a.S
	case AttrBool:
		return a.I != 0
	}
	return a.I
}

// Span is one timed phase inside a request trace. T0/T1 are offsets from
// the trace start; T1 < 0 marks a span that was never ended.
type Span struct {
	Name   string
	T0, T1 time.Duration
	Attrs  []Attr
}

// Dur returns the span duration (0 for an unfinished span).
func (s *Span) Dur() time.Duration {
	if s.T1 < 0 {
		return 0
	}
	return s.T1 - s.T0
}

// spanRec is the recording form of one span.
type spanRec struct {
	name   string
	t0, t1 time.Duration
}

// attrRec is the recording form of one attribute: span is the index of the
// span it belongs to, or -1 for a request-level attribute; v holds the
// int64 bits, the float64 bits or 0/1, selected by kind.
type attrRec struct {
	key  string
	s    string
	v    uint64
	span int32
	kind AttrKind
}

func (a *attrRec) attr() Attr {
	out := Attr{Key: a.key, Kind: a.kind, S: a.s}
	if a.kind == AttrFloat {
		out.F = math.Float64frombits(a.v)
	} else {
		out.I = int64(a.v)
	}
	return out
}

// OwnedPayload is implemented by a trace payload that owns storage the
// flight recorder recycles with its trace. The producer gets the previous
// instance back through Trace.Recycled and refills it in place.
type OwnedPayload interface {
	// CopyPayload returns a deep copy sharing no storage with the receiver;
	// readers' copies of the trace carry it. It runs while the recorder
	// holds the trace off its free list, which is what keeps the producer
	// from refilling the payload mid-copy.
	CopyPayload() any
	// Render returns the value a JSONL dump carries for t, a reader's copy
	// holding this payload (nil to omit it).
	Render(t *Trace) any
}

// Trace is the record of one routing request. Fields are exported for
// encoding; writers use the methods. All methods are no-ops on nil, so
// instrumented code never branches.
type Trace struct {
	Req    int64
	Kind   string // algorithm, e.g. "min-cost"
	S, T   int
	Start  time.Time
	End    time.Time // set by Finish
	Status string    // set by Finish

	// Spans and Attrs are filled only on readers' copies (Find, Snapshot,
	// OnFailure); a recording trace keeps flat records instead.
	Spans []Span
	Attrs []Attr

	// Payload carries an optional structured result attached by the
	// producer — the router stores its explain capture here so the debug
	// endpoints can render a request's report without re-routing it.
	Payload any

	spans []spanRec
	attrs []attrRec
	spare any // the payload this buffer carried before it was recycled
	tr    *Tracer

	// pins counts the readers copying this trace; an evicted trace goes
	// onto the free list only once it is unpinned (evicted marks one
	// waiting). Both are guarded by the flight recorder's mutex.
	pins    int32
	evicted bool
}

// reset clears a recycled buffer for its next request, keeping the record
// storage by capacity and its last payload for Recycled.
func (t *Trace) reset() {
	t.End = time.Time{}
	t.Status = ""
	t.spans = t.spans[:0]
	t.attrs = t.attrs[:0]
	if t.Payload != nil {
		t.spare = t.Payload
		t.Payload = nil
	}
}

// ReqID returns the trace's request ID, or -1 for a nil trace — the
// "absent" convention of callers that correlate records with traces.
func (t *Trace) ReqID() int64 {
	if t == nil {
		return -1
	}
	return t.Req
}

// Begin opens a span and returns its index (-1 on a nil trace). Spans may
// nest or interleave freely; they are kept in open order.
//
//wdm:coldpath nil-safe tracing no-op unless a diagnostic tracer is enabled
func (t *Trace) Begin(name string) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, spanRec{name: name, t0: time.Since(t.Start), t1: -1})
	return len(t.spans) - 1
}

// EndSpan closes the span opened at index i. Invalid indexes are ignored.
func (t *Trace) EndSpan(i int) {
	if t == nil || i < 0 || i >= len(t.spans) {
		return
	}
	t.spans[i].t1 = time.Since(t.Start)
}

// spanAttr records a on span i, ignoring invalid indexes.
//
//wdm:coldpath nil-safe tracing no-op unless a diagnostic tracer is enabled
func (t *Trace) spanAttr(i int, a attrRec) {
	if t == nil || i < 0 || i >= len(t.spans) {
		return
	}
	a.span = int32(i)
	t.attrs = append(t.attrs, a)
}

// reqAttr records a request-level attribute.
//
//wdm:coldpath nil-safe tracing no-op unless a diagnostic tracer is enabled
func (t *Trace) reqAttr(a attrRec) {
	if t == nil {
		return
	}
	a.span = -1
	t.attrs = append(t.attrs, a)
}

func boolBits(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}

// SpanInt attaches an integer attribute to span i.
func (t *Trace) SpanInt(i int, key string, v int64) {
	t.spanAttr(i, attrRec{key: key, kind: AttrInt, v: uint64(v)})
}

// SpanFloat attaches a float attribute to span i.
func (t *Trace) SpanFloat(i int, key string, v float64) {
	t.spanAttr(i, attrRec{key: key, kind: AttrFloat, v: math.Float64bits(v)})
}

// SpanStr attaches a string attribute to span i.
func (t *Trace) SpanStr(i int, key, v string) {
	t.spanAttr(i, attrRec{key: key, kind: AttrStr, s: v})
}

// SpanBool attaches a boolean attribute to span i.
func (t *Trace) SpanBool(i int, key string, v bool) {
	t.spanAttr(i, attrRec{key: key, kind: AttrBool, v: boolBits(v)})
}

// Int attaches a request-level integer attribute.
func (t *Trace) Int(key string, v int64) {
	t.reqAttr(attrRec{key: key, kind: AttrInt, v: uint64(v)})
}

// Float attaches a request-level float attribute.
func (t *Trace) Float(key string, v float64) {
	t.reqAttr(attrRec{key: key, kind: AttrFloat, v: math.Float64bits(v)})
}

// Str attaches a request-level string attribute.
func (t *Trace) Str(key, v string) {
	t.reqAttr(attrRec{key: key, kind: AttrStr, s: v})
}

// SetPayload attaches a structured result to the trace.
//
//wdm:coldpath nil-safe tracing no-op unless a diagnostic tracer is enabled
func (t *Trace) SetPayload(v any) {
	if t != nil {
		t.Payload = v
	}
}

// Recycled returns the payload this trace's buffer carried when the flight
// recorder evicted it, for the producer to refill in place — nil on a nil
// trace or a fresh buffer. Only the writer may call it, before Finish.
func (t *Trace) Recycled() any {
	if t == nil {
		return nil
	}
	return t.spare
}

// Finish stamps the end time and status and hands the trace to the flight
// recorder, which owns it from then on: the writer must not touch it (or
// Finish it again) afterwards, as a later Start may recycle it.
//
//wdm:coldpath nil-safe tracing no-op unless a diagnostic tracer is enabled
func (t *Trace) Finish(status string) {
	if t == nil {
		return
	}
	t.End = time.Now()
	t.Status = status
	tr := t.tr
	if tr == nil {
		return
	}
	fire := status != StatusOK && tr.onFailure != nil && !tr.failed.Load()
	if cp := tr.fr.add(t, fire); cp != nil && tr.failed.CompareAndSwap(false, true) {
		tr.onFailure(tr.fr, cp)
	}
}

// readerCopy returns a deep copy of t for a reader: the exported Spans and
// Attrs filled from the flat records, and an OwnedPayload deep-copied. The
// caller has t pinned, so no Start can recycle it mid-copy.
func (t *Trace) readerCopy() *Trace {
	c := &Trace{
		Req:     t.Req,
		Kind:    t.Kind,
		S:       t.S,
		T:       t.T,
		Start:   t.Start,
		End:     t.End,
		Status:  t.Status,
		Payload: t.Payload,
	}
	if p, ok := t.Payload.(OwnedPayload); ok {
		c.Payload = p.CopyPayload()
	}
	if len(t.spans) > 0 {
		c.Spans = make([]Span, len(t.spans))
		for i, sp := range t.spans {
			c.Spans[i] = Span{Name: sp.name, T0: sp.t0, T1: sp.t1}
		}
	}
	for i := range t.attrs {
		a := &t.attrs[i]
		if a.span < 0 {
			c.Attrs = append(c.Attrs, a.attr())
		} else {
			sp := &c.Spans[a.span]
			sp.Attrs = append(sp.Attrs, a.attr())
		}
	}
	return c
}
