package main

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/workload"
)

// acceptAll is a stub engine that accepts every operation.
func acceptAll(op string, req serve.Request, _ int64) (serve.Response, error) {
	return serve.Response{ID: req.ID, Op: op, Accepted: true, Cost: 1}, nil
}

// TestOpenLoopChargesStall stalls the stub server once for 50 ms. Every
// operation that came due during the stall must report at least the time it
// waited for the stall to end, not just its service time: its ready time may
// excuse the scheduler's own oversleep, never the wait for a sender.
func TestOpenLoopChargesStall(t *testing.T) {
	const (
		stall     = 50 * time.Millisecond
		oversleep = 20 * time.Millisecond // the most a timer may wake late here
	)
	var (
		server     sync.Mutex // held by every call, so the stall blocks both senders
		calls      atomic.Int64
		stallStart time.Time
		stallEnd   time.Time
	)
	stub := func(op string, req serve.Request, parent int64) (serve.Response, error) {
		server.Lock()
		defer server.Unlock()
		if calls.Add(1) == 40 {
			stallStart = time.Now()
			time.Sleep(stall)
			stallEnd = time.Now()
		}
		return acceptAll(op, req, parent)
	}
	var reqs []workload.Request
	for i := 0; i < 200; i++ {
		reqs = append(reqs, workload.Request{ID: i, Src: 0, Dst: 1, Arrival: float64(i) * 0.001, Holding: 0.002})
	}
	recs := runOpen(reqs, 0, []caller{stub, stub}, nil)
	if len(recs) != 2*len(reqs) {
		t.Fatalf("%d records, want %d (every provision and its teardown)", len(recs), 2*len(reqs))
	}
	charged := 0 // runOpen waited for its senders, so the stall times are visible here
	for _, r := range recs {
		if r.failed {
			t.Fatalf("stub operation failed: %s", r.why)
		}
		if r.ready.Before(r.due) {
			t.Errorf("%s ready %v before its due time", r.op, r.due.Sub(r.ready))
		}
		if r.due.After(stallStart) && r.due.Before(stallEnd) {
			charged++
			if slip := r.ready.Sub(r.due); slip > oversleep {
				t.Errorf("%s due %v into the stall was ready %v late: the wait for a sender was excused",
					r.op, r.due.Sub(stallStart), slip)
			}
			if lat, wait := r.done.Sub(r.ready), stallEnd.Sub(r.ready); lat < wait {
				t.Errorf("%s due %v into the stall reports %v latency, less than its %v wait",
					r.op, r.due.Sub(stallStart), lat, wait)
			}
		}
	}
	if charged < 20 {
		t.Fatalf("only %d operations came due during the %v stall; the schedule did not overlap it", charged, stall)
	}
}

// TestOpenLoopTeardownAfterAnswer: a teardown never goes out before the
// provision it releases was answered, even when its departure is earlier.
func TestOpenLoopTeardownAfterAnswer(t *testing.T) {
	slow := func(op string, req serve.Request, parent int64) (serve.Response, error) {
		if op == opProvision {
			time.Sleep(5 * time.Millisecond)
		}
		return acceptAll(op, req, parent)
	}
	reqs := []workload.Request{{ID: 1, Src: 0, Dst: 1, Arrival: 0, Holding: 0.0001}}
	recs := runOpen(reqs, 0, []caller{slow}, nil)
	if len(recs) != 2 || recs[0].op != opProvision || recs[1].op != opTeardown {
		t.Fatalf("records %+v, want a provision then its teardown", recs)
	}
	if recs[1].sent.Before(recs[0].done) {
		t.Fatalf("teardown sent %v before the provision's answer", recs[0].done.Sub(recs[1].sent))
	}
}

// TestClosedLoopWarmupExcluded: operations issued during the warm-up count
// as attempted but never reach the timed phase's latencies or counters.
func TestClosedLoopWarmupExcluded(t *testing.T) {
	const warmDelay = 20 * time.Millisecond
	var timed atomic.Bool
	var timedCalls, allCalls atomic.Int64
	stub := func(op string, req serve.Request, parent int64) (serve.Response, error) {
		allCalls.Add(1)
		if timed.Load() {
			timedCalls.Add(1)
		} else {
			time.Sleep(warmDelay)
		}
		return acceptAll(op, req, parent)
	}
	cs := newClosedClients([]caller{stub, stub}, 14, 1)
	runClients(cs, 100*time.Millisecond, nil, nil)
	timed.Store(true)
	var w window
	start := time.Now()
	runClients(cs, 100*time.Millisecond, &w, nil)
	end := time.Now()
	var o outcome
	for _, c := range cs {
		o.merge(&c.o)
	}
	lat := &w.lat
	if o.timedOps != timedCalls.Load() || o.attempted != allCalls.Load() {
		t.Fatalf("timed ops %d (stub saw %d), attempted %d (stub saw %d)", o.timedOps, timedCalls.Load(), o.attempted, allCalls.Load())
	}
	if o.timedOps == 0 || o.attempted == o.timedOps {
		t.Fatalf("timed ops %d of %d attempted: want both phases to issue operations", o.timedOps, o.attempted)
	}
	if got := lat.len(); int64(got) != o.timedOps {
		t.Fatalf("%d latency samples for %d timed ops", got, o.timedOps)
	}
	if worst := lat.sorted()[lat.len()-1]; time.Duration(worst) >= warmDelay {
		t.Fatalf("a timed latency of %v includes a warm-up call", time.Duration(worst))
	}
	if d := end.Sub(start); d < 100*time.Millisecond {
		t.Fatalf("timed phase lasted %v, want at least 100ms", d)
	}
}

func TestVerdict(t *testing.T) {
	for _, tc := range []struct {
		op               string
		resp             serve.Response
		err              error
		accepted, failed bool
	}{
		{opProvision, serve.Response{Accepted: true}, nil, true, false},
		{opProvision, serve.Response{Reason: serve.ReasonNoRoute}, nil, false, false},
		{opProvision, serve.Response{Reason: serve.ReasonConflict}, nil, false, false},
		{opProvision, serve.Response{Reason: serve.ReasonDuplicateID}, nil, false, true},
		{opProvision, serve.Response{}, errors.New("connection reset"), false, true},
		{opTeardown, serve.Response{Accepted: true}, nil, true, false},
		{opTeardown, serve.Response{Reason: serve.ReasonUnknownConn}, nil, false, true},
		{opTeardown, serve.Response{Reason: serve.ReasonNoRoute}, nil, false, true},
		{opReroute, serve.Response{Reason: serve.ReasonNoRoute}, nil, false, false},
		{opReroute, serve.Response{Reason: serve.ReasonConflict}, nil, false, false},
		{opTeardown, serve.Response{Reason: serve.ReasonConflict}, nil, false, true},
		{opReroute, serve.Response{Reason: serve.ReasonClosed}, nil, false, true},
	} {
		accepted, failed, why := verdict(tc.op, tc.resp, tc.err)
		if accepted != tc.accepted || failed != tc.failed || failed != (why != "") {
			t.Errorf("verdict(%s, %+v, %v) = %v, %v, %q; want accepted %v, failed %v",
				tc.op, tc.resp, tc.err, accepted, failed, why, tc.accepted, tc.failed)
		}
	}
}

// TestFailedOperationFailsRun: one failed operation makes the whole run
// incorrect, so a change that answers with errors quickly cannot pass as
// faster.
func TestFailedOperationFailsRun(t *testing.T) {
	for _, failed := range []int64{0, 1} {
		o := &outcome{attempted: 100, failed: failed, layers: map[string]float64{}}
		if failed > 0 {
			o.noteFailure("provision 7: HTTP 500")
		}
		for _, pl := range perLayer {
			o.layers[pl.Name] = 1
		}
		res, _, err := buildResult(o, true)
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct != (failed == 0) || res.Failed != failed {
			t.Errorf("%d failed: result correct %v, failed %d; violations %v", failed, res.Correct, res.Failed, o.violations)
		}
	}
}
