//go:build !race

// Allocation-regression tests, excluded from -race runs (the detector's
// instrumentation breaks testing.AllocsPerRun accounting).
package serve

import (
	"testing"

	"repro/internal/metrics"
	"repro/internal/obs"
)

// provisionAllocBudget is the whole-pipeline allocation budget for one
// provision + teardown round trip with no registry, telemetry or tracer:
// the op-owned copies of the routed primary and backup, and the response's
// two hop slices. Nothing else allocates. The op stays on the caller's
// stack: a request runs on its caller's goroutine and crosses no channel.
// The connection table recycles its records, so admission copies the pair
// into storage the table already holds and teardown hands the released pair
// to the journal without copying it. Each of the two epoch publishes
// recycles a retired snapshot that no reader pins, syncing it to the
// committed state in place, so a warm publish allocates nothing
// (TestWarmPublishAllocsNothing). Each pooled router's skeleton follows the
// recycled snapshots forward instead of being rebuilt per commit, so no
// auxiliary graph is rebuilt inside the window. Measured 4, bit-stable
// across runs; the budget allows one more. What this pins: stage
// attribution stores its stamps inside the op, so instrumenting the hot
// path added zero allocations; an op that escapes to the heap again, a
// table that stops recycling its records, a publish that copies a snapshot
// again (seven allocations), or a router that stops following snapshots
// (~680 allocations per rebuild), fails at once.
const provisionAllocBudget = 5

// TestProvisionAllocs pins the disabled-telemetry allocation contract of the
// request pipeline (see stageNanos: attribution must ride inside the op).
func TestProvisionAllocs(t *testing.T) {
	e := startEngine(t, nsf(8), Config{})
	var id int64
	run := func() {
		id++
		resp := e.Provision(Request{ID: id, Src: 0, Dst: 9})
		if !resp.Accepted {
			t.Fatalf("provision %d rejected: %+v", id, resp)
		}
		if resp = e.Teardown(id); !resp.Accepted {
			t.Fatalf("teardown %d rejected: %+v", id, resp)
		}
	}
	// Serial requests cycle through the pool: warm every router's skeleton
	// caches outside the window.
	for range cap(e.routers) {
		run()
	}
	if n := testing.AllocsPerRun(200, run); n > provisionAllocBudget {
		t.Fatalf("provision+teardown allocates %.0f, budget %d", n, provisionAllocBudget)
	}
}

// telemetryOnAllocBudget is the same round trip's budget configured the way
// wdmd and the benchmark run it: instruments published on a registry,
// windowed telemetry on, and a flight-recorder tracer, measured once the
// recorder's ring has wrapped. Measured 4 — the disabled path's count:
// metrics and telemetry add none, as requests write the engine's
// preallocated atomic instruments and the collector reads them only at seal
// time, and tracing adds none, as each traced request records into the
// buffer the ring last evicted and refills its recycled explain capture in
// place. An allocation on any of those paths exceeds the budget's one
// allocation of slack. Before the ring wraps each traced request still
// allocates its buffer.
const telemetryOnAllocBudget = 5

// TestProvisionAllocsTelemetryOn pins the enabled-observability allocation
// cost of the request pipeline.
func TestProvisionAllocsTelemetryOn(t *testing.T) {
	EnableMetrics(metrics.NewRegistry())
	t.Cleanup(func() { EnableMetrics(nil) })
	tr := obs.New(obs.Config{Capacity: obs.DefaultCapacity})
	e := startEngine(t, nsf(8), Config{Window: 1, Tracer: tr})
	var id int64
	run := func() {
		id++
		resp := e.Provision(Request{ID: id, Src: 0, Dst: 9})
		if !resp.Accepted {
			t.Fatalf("provision %d rejected: %+v", id, resp)
		}
		if resp = e.Teardown(id); !resp.Accepted {
			t.Fatalf("teardown %d rejected: %+v", id, resp)
		}
	}
	for tr.Flight().Total() <= 2*obs.DefaultCapacity { // wrap the ring, warm the recycled buffers
		run()
	}
	if n := testing.AllocsPerRun(200, run); n > telemetryOnAllocBudget {
		t.Fatalf("telemetry-on provision+teardown allocates %.0f, budget %d", n, telemetryOnAllocBudget)
	}
}

// TestWarmPublishAllocsNothing: once the store has retired snapshots to
// recycle, publishing an epoch — a reservation, then its release — syncs a
// retired snapshot in place and allocates nothing.
func TestWarmPublishAllocsNothing(t *testing.T) {
	st := newStore(nsf(8))
	commit := func() {
		if err := st.cur.Use(3, 5); err != nil {
			t.Fatal(err)
		}
		st.publish()
		if err := st.cur.Release(3, 5); err != nil {
			t.Fatal(err)
		}
		st.publish()
	}
	commit() // warm-up: the first publishes find no retired snapshot
	if n := testing.AllocsPerRun(100, commit); n != 0 {
		t.Fatalf("a warm publish pair allocates %.0f, want 0", n)
	}
}
