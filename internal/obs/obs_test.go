package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"strings"
	"sync"
	"testing"
)

// TestNilSafety drives every method on nil receivers: tracing off must be a
// sequence of no-ops, never a panic.
func TestNilSafety(t *testing.T) {
	var tr *Tracer
	if tr.Flight() != nil {
		t.Error("nil tracer has a flight recorder")
	}
	tc := tr.Start("min-cost", 0, 1)
	if tc != nil {
		t.Fatal("nil tracer handed out a trace")
	}
	if tc.ReqID() != -1 {
		t.Errorf("nil trace ReqID = %d, want -1", tc.ReqID())
	}
	sp := tc.Begin("phase")
	if sp != -1 {
		t.Errorf("nil trace Begin = %d, want -1", sp)
	}
	tc.SpanInt(sp, "k", 1)
	tc.SpanFloat(sp, "k", 1)
	tc.SpanStr(sp, "k", "v")
	tc.SpanBool(sp, "k", true)
	tc.EndSpan(sp)
	tc.Int("k", 1)
	tc.Float("k", 1)
	tc.Str("k", "v")
	tc.SetPayload(42)
	tc.Finish(StatusOK)

	var fr *FlightRecorder
	if fr.Len() != 0 || fr.Total() != 0 || fr.Snapshot() != nil || fr.Find(1) != nil {
		t.Error("nil flight recorder is not empty")
	}
}

// TestDisabledTracerHandsOutNil pins the one off switch: tracing is on
// exactly when a tracer is attached.
func TestDisabledTracerHandsOutNil(t *testing.T) {
	var off *Tracer
	if tc := off.Start("min-cost", 0, 1); tc != nil {
		t.Fatal("nil tracer handed out a trace")
	}
	if tc := New(Config{}).Start("min-cost", 0, 1); tc == nil || tc.Req != 1 {
		t.Fatalf("fresh tracer handed out %+v, want request 1", tc)
	}
}

func TestMonotonicIDsAndSpans(t *testing.T) {
	tr := New(Config{Capacity: 8})
	a := tr.Start("min-cost", 0, 5)
	b := tr.Start("min-load", 2, 3)
	if a.Req != 1 || b.Req != 2 {
		t.Fatalf("request IDs = %d, %d; want 1, 2", a.Req, b.Req)
	}

	sp := a.Begin("suurballe")
	a.SpanInt(sp, "relaxations", 17)
	a.SpanBool(sp, "found", true)
	a.EndSpan(sp)
	a.Str("skeleton", "miss")
	a.Float("cost", 3.5)
	a.Finish(StatusOK)
	b.Finish(StatusBlocked)

	// The recorder owns finished traces; readers see copies with the
	// exported spans and attributes filled in.
	ra, rb := tr.Flight().Find(1), tr.Flight().Find(2)
	if ra == nil || rb == nil {
		t.Fatal("Find did not return the recorded traces")
	}
	if ra == a || rb == b {
		t.Error("Find returned the recorder's buffer, not a reader's copy")
	}
	if got := len(ra.Spans); got != 1 {
		t.Fatalf("span count = %d, want 1", got)
	}
	s := ra.Spans[0]
	if s.Name != "suurballe" || s.T1 < s.T0 || s.Dur() < 0 {
		t.Errorf("bad span %+v", s)
	}
	if len(s.Attrs) != 2 || s.Attrs[0].Value() != int64(17) || s.Attrs[1].Value() != true {
		t.Errorf("bad span attrs %+v", s.Attrs)
	}
	if len(ra.Attrs) != 2 || ra.Attrs[0].Value() != "miss" || ra.Attrs[1].Value() != 3.5 {
		t.Errorf("bad request attrs %+v", ra.Attrs)
	}
	if ra.Status != StatusOK || rb.Status != StatusBlocked || ra.Kind != "min-cost" || rb.S != 2 || rb.T != 3 {
		t.Errorf("copies = %+v, %+v", ra, rb)
	}
	if got := tr.Flight().Len(); got != 2 {
		t.Errorf("flight recorder holds %d traces, want 2", got)
	}
	if tr.Flight().Find(99) != nil {
		t.Error("Find invented a trace")
	}
}

func TestUnendedSpanHasZeroDur(t *testing.T) {
	tr := New(Config{})
	tc := tr.Start("min-cost", 0, 1)
	tc.Begin("never-ended")
	tc.Finish(StatusOK)
	if d := tr.Flight().Find(1).Spans[0].Dur(); d != 0 {
		t.Errorf("unended span Dur = %v, want 0", d)
	}
}

func TestRingEviction(t *testing.T) {
	tr := New(Config{Capacity: 4})
	for i := 0; i < 10; i++ {
		tr.Start("min-cost", 0, 1).Finish(StatusOK)
	}
	fr := tr.Flight()
	if fr.Len() != 4 || fr.Total() != 10 {
		t.Fatalf("Len=%d Total=%d, want 4, 10", fr.Len(), fr.Total())
	}
	snap := fr.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot has %d traces", len(snap))
	}
	for i, tc := range snap {
		if want := int64(7 + i); tc.Req != want {
			t.Errorf("snapshot[%d].Req = %d, want %d (oldest first)", i, tc.Req, want)
		}
	}
	if fr.Find(3) != nil {
		t.Error("evicted trace still findable")
	}
}

func TestDumpJSONL(t *testing.T) {
	tr := New(Config{Capacity: 8})
	tc := tr.Start("min-cost", 0, 9)
	sp := tc.Begin("reweight")
	tc.SpanStr(sp, "kind", "cost")
	tc.EndSpan(sp)
	tc.Float("pair_cost", 12.5)
	tc.SetPayload(map[string]int{"hops": 3})
	tc.Finish(StatusOK)
	tr.Start("min-load", 1, 2).Finish(StatusBlocked)

	var buf bytes.Buffer
	if err := tr.Flight().Dump(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("dump has %d lines, want 2", len(lines))
	}
	var first struct {
		Req    int64          `json:"req"`
		Kind   string         `json:"kind"`
		S      int            `json:"s"`
		T      int            `json:"t"`
		Status string         `json:"status"`
		Attrs  map[string]any `json:"attrs"`
		Spans  []struct {
			Name  string         `json:"name"`
			Attrs map[string]any `json:"attrs"`
		} `json:"spans"`
		Payload map[string]any `json:"payload"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("line 1 is not JSON: %v", err)
	}
	if first.Req != 1 || first.Kind != "min-cost" || first.Status != StatusOK {
		t.Errorf("bad first line: %+v", first)
	}
	if first.Attrs["pair_cost"] != 12.5 {
		t.Errorf("attrs = %v", first.Attrs)
	}
	if len(first.Spans) != 1 || first.Spans[0].Name != "reweight" || first.Spans[0].Attrs["kind"] != "cost" {
		t.Errorf("spans = %+v", first.Spans)
	}
	if first.Payload["hops"] != float64(3) {
		t.Errorf("payload = %v", first.Payload)
	}
}

// TestDumpNonFiniteFloats pins the wire form of ±Inf and NaN attributes:
// encoding/json refuses them, so one blocked MinCog request (bottleneck
// L* = +Inf) would otherwise fail every later dump of the ring.
func TestDumpNonFiniteFloats(t *testing.T) {
	tr := New(Config{Capacity: 4})
	tc := tr.Start("min-load-cost", 0, 9)
	sp := tc.Begin("bottleneck")
	tc.SpanFloat(sp, "bottleneck", math.Inf(1))
	tc.SpanFloat(sp, "lo", math.Inf(-1))
	tc.EndSpan(sp)
	tc.Float("ratio", math.NaN())
	tc.Float("cost", 2.5)
	tc.Finish(StatusBlocked)

	var buf bytes.Buffer
	if err := tr.Flight().Dump(&buf); err != nil {
		t.Fatalf("dump with non-finite attributes: %v", err)
	}
	var got struct {
		Attrs map[string]any `json:"attrs"`
		Spans []struct {
			Attrs map[string]any `json:"attrs"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("dump is not JSON: %v", err)
	}
	if got.Attrs["ratio"] != "NaN" || got.Attrs["cost"] != 2.5 {
		t.Errorf("attrs = %v, want ratio \"NaN\" and cost 2.5", got.Attrs)
	}
	if len(got.Spans) != 1 || got.Spans[0].Attrs["bottleneck"] != "+Inf" || got.Spans[0].Attrs["lo"] != "-Inf" {
		t.Errorf("spans = %+v, want bottleneck \"+Inf\" and lo \"-Inf\"", got.Spans)
	}
	var req bytes.Buffer
	if found, err := tr.Flight().DumpReq(&req, 1); err != nil || !found {
		t.Fatalf("DumpReq = %v, %v", found, err)
	}
}

func TestDumpFile(t *testing.T) {
	tr := New(Config{})
	tr.Start("min-cost", 0, 1).Finish(StatusOK)
	path := t.TempDir() + "/flight.jsonl"
	if err := tr.Flight().DumpFile(path); err != nil {
		t.Fatal(err)
	}
	// Truncation: a second dump with one more trace must not append.
	tr.Start("min-cost", 0, 2).Finish(StatusOK)
	if err := tr.Flight().DumpFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), "\n"); n != 2 {
		t.Errorf("dump file has %d lines, want 2", n)
	}
}

func TestOnFailureFiresOnce(t *testing.T) {
	var mu sync.Mutex
	calls := 0
	var failedReq int64
	tr := New(Config{
		Capacity: 8,
		OnFailure: func(fr *FlightRecorder, tc *Trace) {
			mu.Lock()
			defer mu.Unlock()
			calls++
			failedReq = tc.Req
			if fr.Find(tc.Req) == nil {
				t.Error("failing trace not yet in the recorder")
			}
		},
	})
	tr.Start("min-cost", 0, 1).Finish(StatusOK)
	tr.Start("min-cost", 0, 2).Finish(StatusBlocked) // fires
	tr.Start("min-cost", 0, 3).Finish(StatusBlocked) // suppressed
	mu.Lock()
	defer mu.Unlock()
	if calls != 1 {
		t.Errorf("OnFailure ran %d times, want 1", calls)
	}
	if failedReq != 2 {
		t.Errorf("OnFailure saw req %d, want 2", failedReq)
	}
}

// TestConcurrentRecordAndDump exercises the flight recorder the way the
// debug HTTP server does: one goroutine records while others dump and look
// up. Run under -race in CI.
func TestConcurrentRecordAndDump(t *testing.T) {
	tr := New(Config{Capacity: 32})
	const writers, readers, perWriter = 4, 4, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				tc := tr.Start("min-cost", 0, 1)
				sp := tc.Begin("suurballe")
				tc.SpanInt(sp, "i", int64(i))
				tc.EndSpan(sp)
				status := StatusOK
				if i%7 == 0 {
					status = StatusBlocked
				}
				tc.Finish(status)
			}
		}()
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := tr.Flight().Dump(io.Discard); err != nil {
					t.Errorf("dump: %v", err)
				}
				tr.Flight().Find(int64(i * 3))
				tr.Flight().Snapshot()
				tr.Flight().Len()
			}
		}()
	}
	wg.Wait()
	if got := tr.Flight().Total(); got != writers*perWriter {
		t.Errorf("Total = %d, want %d", got, writers*perWriter)
	}
	if got := tr.Flight().Len(); got != 32 {
		t.Errorf("Len = %d, want capacity 32", got)
	}
}

type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	if w.n > 64 {
		return 0, io.ErrClosedPipe
	}
	return len(p), nil
}

func TestDumpReportsWriteError(t *testing.T) {
	tr := New(Config{})
	for i := 0; i < 10; i++ {
		tr.Start("min-cost", 0, 1).Finish(StatusOK)
	}
	if err := tr.Flight().Dump(&failWriter{}); err == nil {
		t.Fatal("dump on a failing writer returned nil")
	}
}
