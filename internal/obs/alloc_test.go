//go:build !race

// Allocation-regression tests, excluded from -race runs (the detector's
// instrumentation breaks testing.AllocsPerRun accounting).
package obs

import "testing"

// TestTracedRequestAllocsNothingOnceWrapped pins the recycling contract: once
// the ring has wrapped and the recycled buffers have grown to the request's
// shape, a traced request — start, spans, attributes, an owned payload
// refilled in place, finish — allocates nothing.
func TestTracedRequestAllocsNothingOnceWrapped(t *testing.T) {
	const capacity = 8
	tr := New(Config{Capacity: capacity})
	for i := 0; i < 3*capacity; i++ {
		record(tr, StatusOK)
	}
	if n := testing.AllocsPerRun(200, func() { record(tr, StatusOK) }); n != 0 {
		t.Fatalf("warm traced request allocates %.1f, want 0", n)
	}
}
