package netsim

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/explain"
	"repro/internal/trace"
)

// TestEventStreamJoinsFlightRecorder is the correlation contract: every
// connection-scoped event in the simulator's trace stream carries the obs
// request ID of the routing trace that produced (or blocked) the connection,
// and that ID resolves in the tracer's flight recorder to a trace with the
// matching status, endpoints, and — for accepted requests — an explain
// report payload.
func TestEventStreamJoinsFlightRecorder(t *testing.T) {
	buf := &trace.Buffer{}
	tr := obs.New(obs.Config{Capacity: 4096})
	sim := New(nsf(4), Config{
		Algorithm:   MinCost,
		Restoration: Active,
		Trace:       buf,
		Tracer:      tr,
	})
	m := sim.Run(poisson(14, 250, 30, 7))
	if m.Blocked == 0 {
		t.Fatal("want some blocked requests at this load; raise erlang")
	}

	accepts, blocks := 0, 0
	for _, e := range buf.Events() {
		switch e.Kind {
		case trace.Arrival, trace.Accept, trace.Block, trace.Depart:
			if e.Req < 1 {
				t.Fatalf("%s event for conn %d has req %d; want a traced request", e.Kind, e.Conn, e.Req)
			}
			tc := tr.Flight().Find(int64(e.Req))
			if tc == nil {
				t.Fatalf("%s event req %d not in the flight recorder", e.Kind, e.Req)
			}
			switch e.Kind {
			case trace.Accept:
				accepts++
				if tc.Status != obs.StatusOK {
					t.Fatalf("accept event req %d maps to status %q", e.Req, tc.Status)
				}
				rep := explain.Of(tc)
				if rep == nil {
					t.Fatalf("accepted req %d has no explain report (payload %T)", e.Req, tc.Payload)
				}
				if rep.Algorithm != "min-cost" {
					t.Fatalf("req %d algorithm %q", e.Req, rep.Algorithm)
				}
			case trace.Block:
				blocks++
				if tc.Status != obs.StatusBlocked {
					t.Fatalf("block event req %d maps to status %q", e.Req, tc.Status)
				}
			}
		default:
			if e.Req != -1 {
				t.Fatalf("%s event has req %d; want -1 (no routing trace)", e.Kind, e.Req)
			}
		}
	}
	if accepts != m.Accepted || blocks != m.Blocked {
		t.Fatalf("event census accepts=%d blocks=%d vs metrics %d/%d", accepts, blocks, m.Accepted, m.Blocked)
	}
	if got := tr.Flight().Total(); got != int64(m.Offered) {
		t.Fatalf("flight recorder total %d, want one trace per offered request (%d)", got, m.Offered)
	}
}

// TestPassiveArrivalsAreTraced covers the passive discipline, which routes
// with lightpath.Optimal instead of the core router and therefore opens its
// own "passive-optimal" trace.
func TestPassiveArrivalsAreTraced(t *testing.T) {
	buf := &trace.Buffer{}
	tr := obs.New(obs.Config{Capacity: 1024})
	sim := New(nsf(4), Config{
		Algorithm:   MinCost,
		Restoration: Passive,
		Trace:       buf,
		Tracer:      tr,
	})
	m := sim.Run(poisson(14, 100, 10, 3))
	if m.Accepted == 0 {
		t.Fatal("no accepted requests")
	}
	for _, e := range buf.Events() {
		if e.Kind != trace.Accept {
			continue
		}
		tc := tr.Flight().Find(int64(e.Req))
		if tc == nil || tc.Kind != "passive-optimal" || tc.Status != obs.StatusOK {
			t.Fatalf("accept req %d: trace %+v", e.Req, tc)
		}
	}
}

// TestUntracedRunEmitsAbsentReq pins the -1 convention: with no Tracer
// configured, connection events carry req -1, not a fake ID.
func TestUntracedRunEmitsAbsentReq(t *testing.T) {
	buf := &trace.Buffer{}
	sim := New(nsf(4), Config{Algorithm: MinCost, Restoration: Active, Trace: buf})
	sim.Run(poisson(14, 50, 10, 3))
	for _, e := range buf.Events() {
		if e.Req != -1 {
			t.Fatalf("untraced run emitted %s with req %d", e.Kind, e.Req)
		}
	}
}
