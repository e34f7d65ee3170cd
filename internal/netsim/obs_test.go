package netsim

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/explain"
	"repro/internal/wdm"
)

// eventLog returns a tracer whose flight recorder holds a whole test run:
// its routing traces and its sim.* event traces.
func eventLog() *obs.Tracer { return obs.New(obs.Config{Capacity: 1 << 14}) }

// simEvents returns the sim.* event traces in tr's flight recorder, oldest
// first, failing the test if the ring has evicted anything.
func simEvents(t *testing.T, tr *obs.Tracer) []*obs.Trace {
	t.Helper()
	fr := tr.Flight()
	if fr.Total() != int64(fr.Len()) {
		t.Fatalf("flight ring wrapped: %d of %d traces retained", fr.Len(), fr.Total())
	}
	var out []*obs.Trace
	for _, tc := range fr.Snapshot() {
		if strings.HasPrefix(tc.Kind, "sim.") {
			out = append(out, tc)
		}
	}
	return out
}

// attr returns the request-level attribute key of tc.
func attr(tc *obs.Trace, key string) (obs.Attr, bool) {
	for _, a := range tc.Attrs {
		if a.Key == key {
			return a, true
		}
	}
	return obs.Attr{}, false
}

// census counts event traces by "kind/status".
func census(evs []*obs.Trace) map[string]int {
	n := map[string]int{}
	for _, ev := range evs {
		n[ev.Kind+"/"+ev.Status]++
	}
	return n
}

// TestEventStreamJoinsFlightRecorder is the correlation contract: every
// connection event in the flight recorder carries, as route_req, the
// request ID of the routing trace that produced (or blocked) the
// connection, and that ID resolves in the same recorder to a routing trace
// with the matching status, endpoints, and — for accepted requests — an
// explain report payload. Link and network events carry no route_req.
func TestEventStreamJoinsFlightRecorder(t *testing.T) {
	tr := eventLog()
	sim := New(nsf(4), Config{
		Algorithm:   MinCost,
		Restoration: Active,
		Tracer:      tr,
	})
	m := sim.Run(poisson(14, 250, 30, 7))
	if m.Blocked == 0 {
		t.Fatal("want some blocked requests at this load; raise erlang")
	}

	evs := simEvents(t, tr)
	accepts, blocks := 0, 0
	for _, ev := range evs {
		ra, ok := attr(ev, "route_req")
		switch ev.Kind {
		case "sim.arrival", "sim.depart":
			if !ok || ra.I < 1 {
				t.Fatalf("%s event %d has route_req %v; want a traced request", ev.Kind, ev.Req, ra)
			}
			tc := tr.Flight().Find(ra.I)
			if tc == nil {
				t.Fatalf("%s event route_req %d not in the flight recorder", ev.Kind, ra.I)
			}
			if tc.S != ev.S || tc.T != ev.T {
				t.Fatalf("%s event %d->%d joins routing trace %d->%d", ev.Kind, ev.S, ev.T, tc.S, tc.T)
			}
			if ev.Kind == "sim.depart" {
				continue
			}
			if tc.Status != ev.Status {
				t.Fatalf("arrival %s joins routing trace %d with status %q", ev.Status, ra.I, tc.Status)
			}
			if ev.Status == obs.StatusBlocked {
				blocks++
				continue
			}
			accepts++
			rep := explain.Of(tc)
			if rep == nil {
				t.Fatalf("accepted req %d has no explain report (payload %T)", ra.I, tc.Payload)
			}
			if rep.Algorithm != "min-cost" {
				t.Fatalf("req %d algorithm %q", ra.I, rep.Algorithm)
			}
		default:
			if ok {
				t.Fatalf("%s event has route_req %d; want none (no routing trace)", ev.Kind, ra.I)
			}
		}
	}
	if accepts != m.Accepted || blocks != m.Blocked {
		t.Fatalf("event census accepts=%d blocks=%d vs metrics %d/%d", accepts, blocks, m.Accepted, m.Blocked)
	}
	if routed := tr.Flight().Total() - int64(len(evs)); routed != int64(m.Offered) {
		t.Fatalf("%d routing traces, want one per offered request (%d)", routed, m.Offered)
	}
}

// TestPassiveArrivalsAreTraced covers the passive discipline, which routes
// with lightpath.Optimal instead of the core router and therefore opens its
// own "passive-optimal" trace.
func TestPassiveArrivalsAreTraced(t *testing.T) {
	tr := eventLog()
	sim := New(nsf(4), Config{
		Algorithm:   MinCost,
		Restoration: Passive,
		Tracer:      tr,
	})
	m := sim.Run(poisson(14, 100, 10, 3))
	if m.Accepted == 0 {
		t.Fatal("no accepted requests")
	}
	accepts := 0
	for _, ev := range simEvents(t, tr) {
		if ev.Kind != "sim.arrival" || ev.Status != obs.StatusOK {
			continue
		}
		accepts++
		ra, _ := attr(ev, "route_req")
		tc := tr.Flight().Find(ra.I)
		if tc == nil || tc.Kind != "passive-optimal" || tc.Status != obs.StatusOK {
			t.Fatalf("accept route_req %d: trace %+v", ra.I, tc)
		}
	}
	if accepts != m.Accepted {
		t.Fatalf("%d accepted arrivals traced, want %d", accepts, m.Accepted)
	}
}

// TestUntracedRunEmitsAbsentReq pins the absent-route_req convention: a
// RouteFunc routes outside the sim's router, so no routing trace exists and
// the arrival and departure events omit route_req instead of naming a fake
// ID.
func TestUntracedRunEmitsAbsentReq(t *testing.T) {
	tr := eventLog()
	r := core.NewRouter(nil)
	sim := New(nsf(4), Config{
		Algorithm: MinCost, Restoration: Active, Tracer: tr,
		RouteFunc: func(net *wdm.Network, s, d int) (*core.Result, bool) {
			return r.Route(core.MinCost, net, s, d)
		},
	})
	m := sim.Run(poisson(14, 50, 10, 3))
	evs := simEvents(t, tr)
	if got := census(evs)["sim.arrival/ok"]; got != m.Accepted || got == 0 {
		t.Fatalf("%d accepted arrival events, want %d", got, m.Accepted)
	}
	for _, ev := range evs {
		if a, ok := attr(ev, "route_req"); ok {
			t.Fatalf("untraced routing emitted %s with route_req %d", ev.Kind, a.I)
		}
	}
}
