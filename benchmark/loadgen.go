package main

import (
	"container/heap"
	"math/rand"
	"sync"
	"time"

	"repro/internal/serve"
	"repro/internal/workload"
)

// The closed-loop operation mix is wdmd -soak's: a reroute of a random live
// connection every rerouteEvery-th operation, otherwise a teardown of the
// oldest live connection with probability teardownP (always at maxLive),
// otherwise a provision between uniform random distinct nodes.
const (
	closedClients = 2
	maxLive       = 32
	teardownP     = 0.45
	rerouteEvery  = 50
)

// closedClient sends its next operation only after the previous answer
// arrived. It owns the connections it provisioned.
type closedClient struct {
	id    int
	call  caller
	rng   *rand.Rand
	nodes int
	live  []int64
	conns int64     // connections provisioned so far; numbers the next ID
	n     int       // operations issued
	o     outcome   // counters over the whole run
	lat   latencies // latencies of the current window's timed operations
}

func newClosedClients(calls []caller, nodes int, seed int64) []*closedClient {
	cs := make([]*closedClient, len(calls))
	for i, call := range calls {
		cs[i] = &closedClient{id: i, call: call, nodes: nodes,
			rng: rand.New(rand.NewSource(seed*1_000_003 + int64(i)))}
	}
	return cs
}

// step issues one operation. Timed operations count toward the metrics and
// are traced under rec.
func (c *closedClient) step(timed bool, rec *recorder) {
	c.n++
	var op string
	var req serve.Request
	switch {
	case c.n%rerouteEvery == 0 && len(c.live) > 0:
		op, req = opReroute, serve.Request{ID: c.live[c.rng.Intn(len(c.live))]}
	case len(c.live) >= maxLive || (len(c.live) > 0 && c.rng.Float64() < teardownP):
		op, req = opTeardown, serve.Request{ID: c.live[0]}
		c.live = c.live[1:]
	default:
		s := c.rng.Intn(c.nodes)
		d := c.rng.Intn(c.nodes - 1)
		if d >= s {
			d++
		}
		c.conns++
		op, req = opProvision, serve.Request{ID: int64(c.id)<<32 | c.conns, Src: s, Dst: d}
	}
	sp := rec.begin(clientSpanName[op], 0)
	t0 := time.Now()
	resp, err := c.call(op, req, sp.id)
	done := time.Now()
	rec.end(sp)

	accepted, failed, why := verdict(op, resp, err)
	c.o.attempted++
	if failed {
		c.o.failed++
		c.o.noteFailure(why)
	}
	if op == opProvision && accepted {
		c.live = append(c.live, req.ID)
	}
	if !timed {
		return
	}
	c.lat.add(done.Sub(t0))
	c.o.busy += done.Sub(t0)
	c.o.timedOps++
	if op == opProvision && !failed {
		c.o.countProvision(accepted, resp.Cost)
	}
}

// drain tears down every connection the client still owns.
func (c *closedClient) drain() {
	for _, id := range c.live {
		resp, err := c.call(opTeardown, serve.Request{ID: id}, 0)
		c.o.attempted++
		if _, failed, why := verdict(opTeardown, resp, err); failed {
			c.o.failed++
			c.o.noteFailure(why)
		}
	}
	c.live = nil
}

// runClients runs every client for the given length, its operations timed
// into w unless w is nil (the warm-up), and returns once each client has
// had the answer to its last operation.
func runClients(cs []*closedClient, length time.Duration, w *window, rec *recorder) {
	until := time.Now().Add(length)
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *closedClient) {
			defer wg.Done()
			for time.Now().Before(until) {
				c.step(w != nil, rec)
			}
		}(c)
	}
	wg.Wait()
	if w == nil {
		return
	}
	for _, c := range cs {
		w.lat.merge(&c.lat)
		c.lat = latencies{}
	}
}

// opRecord is one operation of the open loop.
type opRecord struct {
	op                     string
	due, ready, sent, done time.Time
	accepted               bool
	failed                 bool
	why                    string
	cost                   float64
}

// openOp is one operation waiting for its due time.
type openOp struct {
	op      string
	req     serve.Request
	due     time.Time
	ready   time.Time // when the scheduler, awake, could first hand it out
	departs time.Time // provisions: when the connection's teardown falls due
}

type dueHeap []openOp

func (h dueHeap) Len() int           { return len(h) }
func (h dueHeap) Less(i, j int) bool { return h[i].due.Before(h[j].due) }
func (h dueHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *dueHeap) Push(x any)        { *h = append(*h, x.(openOp)) }
func (h *dueHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// runOpen replays arrivals in wall-clock time from now: each provision is
// due at its arrival time, and each accepted connection's teardown at its
// departure, or when its provision was answered if that came later. One
// scheduler sleeps until the next due operation and hands it to the first
// free sender. Connection IDs are idBase plus the request ID.
//
// An operation is ready at its due time, or, if the scheduler was asleep
// then, when it woke: Go timers wake it up to a millisecond late when the
// runtime is otherwise idle, by an amount that depends on the host rather
// than the server, and spinning instead would take a core the server needs.
// Latency runs from the ready time, so an operation that came due while
// every sender was busy is still charged its whole wait; callers report the
// lateness beside it.
func runOpen(reqs []workload.Request, idBase int64, calls []caller, rec *recorder) []opRecord {
	t0 := time.Now()
	var (
		mu        sync.Mutex
		teardowns dueHeap
		pending   int       // provisions handed out and not yet answered
		woke      time.Time // when the scheduler last returned from a sleep
		records   = make([]opRecord, 0, 2*len(reqs))
	)
	wake := make(chan struct{}, 1) // a new teardown may be due earlier than what the scheduler waits for
	work := make(chan openOp)      // unbuffered: a due operation waits for a free sender
	var senders sync.WaitGroup
	for _, call := range calls {
		senders.Add(1)
		go func(call caller) {
			defer senders.Done()
			for op := range work {
				sent := time.Now()
				sp := rec.begin(clientSpanName[op.op], 0)
				resp, err := call(op.op, op.req, sp.id)
				done := time.Now()
				rec.end(sp)
				accepted, failed, why := verdict(op.op, resp, err)
				mu.Lock()
				records = append(records, opRecord{op: op.op, due: op.due, ready: op.ready, sent: sent, done: done,
					accepted: accepted, failed: failed, why: why, cost: resp.Cost})
				if op.op == opProvision {
					pending--
					if accepted {
						due := op.departs
						if done.After(due) {
							due = done
						}
						heap.Push(&teardowns, openOp{op: opTeardown, req: serve.Request{ID: op.req.ID}, due: due})
					}
				}
				mu.Unlock()
				select {
				case wake <- struct{}{}:
				default:
				}
			}
		}(call)
	}

	next := 0
	for {
		mu.Lock()
		var op openOp
		have := len(teardowns) > 0
		fromHeap := have
		if have {
			op = teardowns[0]
		}
		if next < len(reqs) {
			r := reqs[next]
			due := t0.Add(seconds(r.Arrival))
			if !have || due.Before(op.due) {
				op = openOp{op: opProvision, due: due, departs: t0.Add(seconds(r.Departure())),
					req: serve.Request{ID: idBase + int64(r.ID), Src: r.Src, Dst: r.Dst}}
				have, fromHeap = true, false
			}
		}
		if !have {
			idle := pending == 0
			mu.Unlock()
			if idle {
				break
			}
			<-wake // a provision will be answered, maybe with a teardown to schedule
			woke = time.Now()
			continue
		}
		if wait := time.Until(op.due); wait > 0 {
			mu.Unlock()
			select {
			case <-time.After(wait):
			case <-wake:
			}
			woke = time.Now()
			continue // look again: an earlier teardown may have been scheduled
		}
		if fromHeap {
			heap.Pop(&teardowns)
		} else {
			next++
			pending++
		}
		mu.Unlock()
		op.ready = op.due
		if woke.After(op.due) {
			op.ready = woke
		}
		work <- op
	}
	close(work)
	senders.Wait()
	return records
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
