package explain_test

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/obs/explain"
	"repro/internal/serve"
	"repro/internal/topo"
	"repro/internal/wdm"
	"repro/internal/workload"
)

// render returns a report's JSON and text forms.
func render(t *testing.T, r *explain.Report) (string, string) {
	t.Helper()
	var js, txt bytes.Buffer
	if err := r.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	return js.String(), txt.String()
}

// eagerRef is a report built right after a request routed,
// on the network state it routed on, rendered both ways.
type eagerRef struct {
	rep     *explain.Report
	js, txt string
}

func eager(t *testing.T, net *wdm.Network, req int64, algo string, s, d int, res *core.Result) *eagerRef {
	t.Helper()
	in := input(algo, s, d, res)
	in.Req = req
	rep := build(t, net, in)
	js, txt := render(t, rep)
	return &eagerRef{rep: rep, js: js, txt: txt}
}

// sameAsEager checks that the report rendered on read from the flight
// recorder equals the eager build bit for bit: identical JSON and text once
// the phase table (which only the trace carries) is set aside.
func sameAsEager(t *testing.T, fr *obs.FlightRecorder, req int64, ref *eagerRef) {
	t.Helper()
	lazy := explain.Of(fr.Find(req))
	if lazy == nil {
		t.Fatalf("req %d: no report on read", req)
	}
	if len(lazy.Phases) == 0 {
		t.Fatalf("req %d: report rendered on read has no phases", req)
	}
	lazy.Phases = nil
	for name, pair := range map[string][2]float64{
		"pair":    {lazy.PairCost, ref.rep.PairCost},
		"primary": {lazy.Primary.Cost, ref.rep.Primary.Cost},
		"backup":  {lazy.Backup.Cost, ref.rep.Backup.Cost},
	} {
		if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
			t.Fatalf("req %d: %s cost %v on read != %v eager (bit-exact required)", req, name, pair[0], pair[1])
		}
	}
	js, txt := render(t, lazy)
	if js != ref.js {
		t.Fatalf("req %d: JSON on read differs from eager build:\n got %s\nwant %s", req, js, ref.js)
	}
	if txt != ref.txt {
		t.Fatalf("req %d: text on read differs from eager build:\n got %s\nwant %s", req, txt, ref.txt)
	}
}

// lazyCheck compares each report once capacity/2 later traced requests
// have mutated the network and recycled buffers, then every report still
// retained at the end.
type lazyCheck struct {
	fr       *obs.FlightRecorder
	capacity int
	order    []int64
	refs     map[int64]*eagerRef
}

func (c *lazyCheck) add(t *testing.T, req int64, ref *eagerRef) {
	t.Helper()
	c.refs[req] = ref
	c.order = append(c.order, req)
	if old, ok := c.refs[req-int64(c.capacity/2)]; ok {
		sameAsEager(t, c.fr, req-int64(c.capacity/2), old)
	}
}

func (c *lazyCheck) finish(t *testing.T) int {
	t.Helper()
	retained := 0
	for _, req := range c.order {
		if c.fr.Find(req) != nil {
			sameAsEager(t, c.fr, req, c.refs[req])
			retained++
		}
	}
	if retained == 0 {
		t.Fatal("no report retained at the end")
	}
	return len(c.order)
}

var lazyAlgos = []core.Algorithm{core.MinCost, core.MinLoad, core.MinLoadCost}

// TestExplainOfMatchesBuildInNetsimRun drives a simulator run whose
// arrivals route through a traced router, builds each report eagerly on the
// simulator's network as the request routes, and checks the report rendered
// on read later — after departures and arrivals have mutated the network and
// a small ring has recycled its buffers — is bit-identical.
func TestExplainOfMatchesBuildInNetsimRun(t *testing.T) {
	for _, algo := range lazyAlgos {
		t.Run(algo.String(), func(t *testing.T) {
			const capacity = 16
			tr := obs.New(obs.Config{Capacity: capacity})
			r := core.NewRouter(nil)
			r.SetTracer(tr)
			check := &lazyCheck{fr: tr.Flight(), capacity: capacity, refs: map[int64]*eagerRef{}}
			route := func(net *wdm.Network, s, d int) (*core.Result, bool) {
				res, ok := r.Route(algo, net, s, d)
				if ok {
					check.add(t, r.LastTraceID(), eager(t, net, r.LastTraceID(), algo.String(), s, d, res))
				}
				return res, ok
			}
			sim := netsim.New(topo.NSFNET(topo.Config{W: 4}), netsim.Config{
				Algorithm:   algo,
				Restoration: netsim.Active,
				RouteFunc:   route,
			})
			m := sim.Run(workload.Poisson(workload.PoissonConfig{
				Nodes: 14, ArrivalRate: 20, MeanHolding: 1, Count: 150, Seed: 5,
			}))
			if n := check.finish(t); n < 4*capacity || m.Blocked == 0 {
				t.Fatalf("%d routed, %d blocked: want the ring to wrap and the network to fill", n, m.Blocked)
			}
		})
	}
}

// TestExplainOfMatchesBuildInServeRun drives the serving engine with a
// small flight recorder: before each provision a reference router routes
// the same request on the snapshot the engine will route on, the eager
// build is taken there, and the report the engine's trace renders on read
// — after later commits and recycling — must be bit-identical.
func TestExplainOfMatchesBuildInServeRun(t *testing.T) {
	for _, algo := range lazyAlgos {
		t.Run(algo.String(), func(t *testing.T) {
			const capacity = 16
			tr := obs.New(obs.Config{Capacity: capacity})
			e := serve.New(topo.NSFNET(topo.Config{W: 4}), serve.Config{Algorithm: algo, Tracer: tr})
			if err := e.Start(); err != nil {
				t.Fatal(err)
			}
			defer func() {
				if err := e.Close(); err != nil {
					t.Error(err)
				}
			}()
			ref := core.NewRouter(nil)
			check := &lazyCheck{fr: tr.Flight(), capacity: capacity, refs: map[int64]*eagerRef{}}
			reqs := workload.Poisson(workload.PoissonConfig{Nodes: 14, ArrivalRate: 1, MeanHolding: 1, Count: 120, Seed: 9})
			var live []int64
			blocked := 0
			for i, q := range reqs {
				if len(live) > 8 { // keep the network churning
					if resp := e.Teardown(live[0]); !resp.Accepted {
						t.Fatalf("teardown %d: %+v", live[0], resp)
					}
					live = live[1:]
				}
				_, snap := e.Snapshot()
				res, ok := ref.Route(algo, snap, q.Src, q.Dst)
				resp := e.Provision(serve.Request{ID: int64(i + 1), Src: q.Src, Dst: q.Dst})
				if resp.Accepted != ok {
					t.Fatalf("provision %d: engine accepted=%v, reference router ok=%v", i+1, resp.Accepted, ok)
				}
				if !ok {
					blocked++
					continue
				}
				if resp.Retries != 0 || resp.Req <= 0 || len(resp.Primary) != res.Primary.Len() {
					t.Fatalf("provision %d: %+v does not match the reference route", i+1, resp)
				}
				live = append(live, int64(i+1))
				check.add(t, resp.Req, eager(t, snap, resp.Req, algo.String(), q.Src, q.Dst, res))
			}
			if n := check.finish(t); n < 4*capacity {
				t.Fatalf("%d routed (%d blocked): want the ring to wrap", n, blocked)
			}
		})
	}
}
