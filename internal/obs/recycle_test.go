package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"
)

// slabPayload is an OwnedPayload: its producer refills the recycled
// instance in place, so readers must only ever see deep copies.
type slabPayload struct{ vals []int64 }

func (p *slabPayload) CopyPayload() any {
	return &slabPayload{vals: append([]int64(nil), p.vals...)}
}

func (p *slabPayload) Render(t *Trace) any {
	return map[string]any{"req": t.Req, "vals": p.vals}
}

// record runs one traced request the way the router does: spans with
// attributes, request-level attributes, and the recycled payload refilled
// in place. Every recorded value derives from the request ID, so a reader
// can tell a torn or recycled copy from a faithful one.
func record(tr *Tracer, status string) int64 {
	tc := tr.Start("min-cost", 0, 1)
	sp := tc.Begin("reweight")
	tc.SpanInt(sp, "req", tc.Req)
	tc.SpanStr(sp, "kind", "cost")
	tc.EndSpan(sp)
	sp = tc.Begin("suurballe")
	tc.SpanFloat(sp, "weight", float64(tc.Req)/2)
	tc.SpanBool(sp, "found", tc.Req%2 == 0)
	tc.EndSpan(sp)
	tc.Int("req", tc.Req)
	tc.Str("skeleton", "cache-hit")
	p, _ := tc.Recycled().(*slabPayload)
	if p == nil {
		p = &slabPayload{}
	}
	p.vals = append(p.vals[:0], tc.Req, 2*tc.Req)
	tc.SetPayload(p)
	id := tc.Req
	tc.Finish(status)
	return id
}

// consistent reports why a reader's copy disagrees with what record wrote
// for its request ID ("" when it agrees).
func consistent(tc *Trace) string {
	if len(tc.Spans) != 2 || len(tc.Attrs) != 2 {
		return fmt.Sprintf("req %d: %d spans, %d attrs", tc.Req, len(tc.Spans), len(tc.Attrs))
	}
	if a := tc.Spans[0].Attrs; len(a) != 2 || a[0].I != tc.Req || a[1].S != "cost" {
		return fmt.Sprintf("req %d: reweight attrs %+v", tc.Req, a)
	}
	if a := tc.Spans[1].Attrs; len(a) != 2 || a[0].F != float64(tc.Req)/2 || (a[1].I != 0) != (tc.Req%2 == 0) {
		return fmt.Sprintf("req %d: suurballe attrs %+v", tc.Req, a)
	}
	if tc.Attrs[0].I != tc.Req || tc.Attrs[1].S != "cache-hit" {
		return fmt.Sprintf("req %d: request attrs %+v", tc.Req, tc.Attrs)
	}
	p, ok := tc.Payload.(*slabPayload)
	if !ok || len(p.vals) != 2 || p.vals[0] != tc.Req || p.vals[1] != 2*tc.Req {
		return fmt.Sprintf("req %d: payload %+v", tc.Req, tc.Payload)
	}
	return ""
}

func wireJSON(t *testing.T, tc *Trace) string {
	t.Helper()
	b, err := json.Marshal(wire(tc))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestFlightRecorderRecyclesEvictedBuffers pins the buffer lifecycle: Start
// allocates until the ring wraps, then hands out the buffer the ring last
// evicted, reset, with its previous payload available through Recycled.
func TestFlightRecorderRecyclesEvictedBuffers(t *testing.T) {
	const capacity = 4
	tr := New(Config{Capacity: capacity})
	first := tr.Start("min-cost", 0, 1)
	first.Begin("reweight")
	first.Int("k", 1)
	first.SetPayload(&slabPayload{vals: []int64{7}})
	first.Finish(StatusOK)
	for i := 1; i < capacity; i++ {
		if tc := tr.Start("min-cost", 0, 1); tc == first {
			t.Fatal("a buffer still in the ring was handed out again")
		} else {
			tc.Finish(StatusOK)
		}
	}
	tr.Start("min-cost", 0, 1).Finish(StatusOK) // evicts the first trace
	tc := tr.Start("min-load", 2, 3)
	if tc != first {
		t.Fatal("Start after an eviction did not reuse the evicted buffer")
	}
	if len(tc.spans) != 0 || len(tc.attrs) != 0 || tc.Payload != nil || tc.Status != "" || !tc.End.IsZero() {
		t.Fatalf("recycled buffer not reset: %+v", tc)
	}
	if p, ok := tc.Recycled().(*slabPayload); !ok || p.vals[0] != 7 {
		t.Fatalf("Recycled = %+v, want the evicted trace's payload", tc.Recycled())
	}
	if tc.Req != capacity+2 || tc.Kind != "min-load" || tc.S != 2 || tc.T != 3 {
		t.Fatalf("recycled trace identity %d %q %d→%d", tc.Req, tc.Kind, tc.S, tc.T)
	}
	var nilTrace *Trace
	if nilTrace.Recycled() != nil {
		t.Fatal("nil trace has a recycled payload")
	}
}

// TestFlightReaderCopySurvivesRecycling: a copy from Find, Snapshot or a
// dump reads identically after 10×capacity further traces have recycled
// its source buffer many times over.
func TestFlightReaderCopySurvivesRecycling(t *testing.T) {
	const capacity = 8
	tr := New(Config{Capacity: capacity})
	for i := 0; i < 2*capacity; i++ { // wrap first, so the source is a recycled buffer
		record(tr, StatusOK)
	}
	id := record(tr, StatusOK)
	found := tr.Flight().Find(id)
	snap := tr.Flight().Snapshot()
	var dump bytes.Buffer
	if _, err := tr.Flight().DumpReq(&dump, id); err != nil {
		t.Fatal(err)
	}
	if found == nil || len(snap) != capacity || snap[capacity-1].Req != id {
		t.Fatalf("Find/Snapshot lost req %d", id)
	}
	if why := consistent(found); why != "" {
		t.Fatal(why)
	}
	before := wireJSON(t, found)
	if got := wireJSON(t, snap[capacity-1]); got != before {
		t.Fatalf("Snapshot copy %s != Find copy %s", got, before)
	}
	if got := dump.String(); got != before+"\n" {
		t.Fatalf("DumpReq %q != Find copy %q", got, before)
	}

	for i := 0; i < 10*capacity; i++ {
		record(tr, StatusOK)
	}
	if tr.Flight().Find(id) != nil {
		t.Fatalf("req %d still retained after %d more traces", id, 10*capacity)
	}
	if why := consistent(found); why != "" {
		t.Fatal("after recycling: " + why)
	}
	if got := wireJSON(t, found); got != before {
		t.Fatalf("Find copy changed after recycling:\n got %s\nwant %s", got, before)
	}
	for _, tc := range snap {
		if why := consistent(tc); why != "" {
			t.Fatal("snapshot after recycling: " + why)
		}
	}
}

// TestOnFailureCopySurvivesRecycling: the trace OnFailure receives is a
// reader's copy, so it too outlives the recycling of its source buffer.
func TestOnFailureCopySurvivesRecycling(t *testing.T) {
	const capacity = 4
	var got *Trace
	tr := New(Config{
		Capacity:  capacity,
		OnFailure: func(_ *FlightRecorder, tc *Trace) { got = tc },
	})
	for i := 0; i < 2*capacity; i++ {
		record(tr, StatusOK)
	}
	id := record(tr, StatusBlocked)
	if got == nil || got.Req != id || got.Status != StatusBlocked {
		t.Fatalf("OnFailure saw %+v, want blocked req %d", got, id)
	}
	before := wireJSON(t, got)
	for i := 0; i < 10*capacity; i++ {
		record(tr, StatusOK)
	}
	if why := consistent(got); why != "" {
		t.Fatal(why)
	}
	if after := wireJSON(t, got); after != before {
		t.Fatalf("OnFailure copy changed after recycling:\n got %s\nwant %s", after, before)
	}
}

// TestFlightConcurrentRecycleConsistency races writers that recycle
// buffers through a small ring against readers taking copies; every copy
// must be internally consistent. Under -race, a reader touching a buffer
// after it was recycled is a reported data race.
func TestFlightConcurrentRecycleConsistency(t *testing.T) {
	tr := New(Config{Capacity: 4})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				record(tr, StatusOK)
			}
		}()
	}
	errs := make(chan string, 1)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				copies := tr.Flight().Snapshot()
				if tc := tr.Flight().Find(tr.reqID.Load()); tc != nil {
					copies = append(copies, tc)
				}
				for _, tc := range copies {
					if why := consistent(tc); why != "" {
						select {
						case errs <- why:
						default:
						}
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	select {
	case why := <-errs:
		t.Fatal(why)
	default:
	}
}

// TestDumpRendersOwnedPayload: a JSONL dump carries an OwnedPayload's
// Render value, not the payload struct itself.
func TestDumpRendersOwnedPayload(t *testing.T) {
	tr := New(Config{Capacity: 2})
	id := record(tr, StatusOK)
	var buf bytes.Buffer
	if err := tr.Flight().Dump(&buf); err != nil {
		t.Fatal(err)
	}
	var line struct {
		Payload struct {
			Req  int64   `json:"req"`
			Vals []int64 `json:"vals"`
		} `json:"payload"`
	}
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatal(err)
	}
	if line.Payload.Req != id || len(line.Payload.Vals) != 2 || line.Payload.Vals[1] != 2*id {
		t.Fatalf("dump payload = %+v", line.Payload)
	}
}

// hookPayload runs hook at the start of CopyPayload, before it copies.
type hookPayload struct {
	vals []int64
	hook func()
}

func (p *hookPayload) CopyPayload() any {
	if p.hook != nil {
		p.hook()
	}
	return &slabPayload{vals: append([]int64(nil), p.vals...)}
}

func (p *hookPayload) Render(*Trace) any { return p.vals }

// TestReaderCopiesOutsideTheLock: a reader holds the recorder's lock only
// to pin the traces it copies. Writers keep recording while a copy is in
// progress — which would deadlock if the copy ran under the lock — and the
// trace being copied is evicted but not recycled until its pin is released,
// after which the next Start reuses it.
func TestReaderCopiesOutsideTheLock(t *testing.T) {
	const capacity = 4
	tr := New(Config{Capacity: capacity})
	src := tr.Start("min-cost", 0, 1)
	id := src.Req
	p := &hookPayload{vals: []int64{id, 2 * id}}
	p.hook = func() {
		p.hook = nil
		for i := 0; i < 3*capacity; i++ {
			if tc := tr.Start("min-cost", 0, 1); tc == src {
				t.Error("a pinned trace was recycled mid-copy")
			} else {
				tc.Finish(StatusOK)
			}
		}
	}
	src.SetPayload(p)
	src.Finish(StatusOK)
	done := make(chan *Trace)
	go func() { done <- tr.Flight().Find(id) }()
	var c *Trace
	select {
	case c = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Find deadlocked: the copy ran under the recorder's lock")
	}
	if c == nil || c.Req != id {
		t.Fatalf("Find(%d) = %+v", id, c)
	}
	if got := c.Payload.(*slabPayload).vals; got[0] != id || got[1] != 2*id {
		t.Fatalf("copied payload %v, want [%d %d]", got, id, 2*id)
	}
	if tc := tr.Start("min-cost", 0, 1); tc != src {
		t.Fatal("the trace evicted while pinned did not return to the free list")
	}
}
