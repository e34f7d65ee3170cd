package serve

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// LoadConfig parameterises the two closed-loop load generators behind
// `wdmd -soak` and `wdmd -drive`: RunSoak calls a started engine in-process,
// Drive calls a live daemon over HTTP. Both run the same seeded client
// workload (clientLoop).
type LoadConfig struct {
	// Requests is the total operation count across all clients.
	Requests int
	// Clients is the number of concurrent clients (16 if 0).
	Clients int
	// Seed makes the workload deterministic: client i draws from
	// rand.New(rand.NewSource(Seed + i)).
	Seed int64
	// MaxLive caps each client's live connections; above it the client
	// tears down its oldest before provisioning (32 if 0).
	MaxLive int
	// RerouteEvery issues a reroute of a random live connection every n-th
	// operation per client (0 disables reroutes).
	RerouteEvery int
	// Drain tears down every connection still live after the load phase.
	// RunSoak tears down the engine's live set and then audits the engine;
	// Drive has each client tear down what it still holds.
	Drain bool
}

func (c *LoadConfig) clients() int {
	if c.Clients > 0 {
		return c.Clients
	}
	return 16
}

func (c *LoadConfig) maxLive() int {
	if c.MaxLive > 0 {
		return c.MaxLive
	}
	return 32
}

// teardownFrac is the probability a client with live connections tears its
// oldest down instead of provisioning. Without churn the network saturates
// and the tail of a run measures only blocking.
const teardownFrac = 0.45

// LoadReport aggregates one RunSoak or Drive run. Epochs, Conflicts and
// Retries are the engine's totals read at the end of the load phase.
type LoadReport struct {
	Mode       string  `json:"mode"` // "soak" or "drive"
	Requests   int     `json:"requests"`
	Clients    int     `json:"clients"`
	Seed       int64   `json:"seed"`
	Provisions int64   `json:"provisions"`
	Accepted   int64   `json:"accepted"`
	Blocked    int64   `json:"blocked"`
	Teardowns  int64   `json:"teardowns"`
	Reroutes   int64   `json:"reroutes"`
	Errors     int64   `json:"errors"`
	Blocking   float64 `json:"blocking_probability"`
	P50Micros  float64 `json:"p50_us"`
	P99Micros  float64 `json:"p99_us"`
	Elapsed    float64 `json:"elapsed_seconds"`
	Throughput float64 `json:"requests_per_second"`
	Epochs     uint64  `json:"epochs"`
	Conflicts  int64   `json:"conflicts"`
	Retries    int64   `json:"retries"`
	Drained    bool    `json:"drained"`
}

func (r LoadReport) String() string {
	return fmt.Sprintf(
		"%s: %d requests, %d clients, seed %d: %d provisions (%d accepted, %d blocked, blocking %.4f), "+
			"%d teardowns, %d reroutes, %d transport errors, p50 %.1fµs p99 %.1fµs, %.0f req/s over %.2fs, "+
			"%d epochs, %d conflicts, %d retries",
		r.Mode, r.Requests, r.Clients, r.Seed, r.Provisions, r.Accepted, r.Blocked, r.Blocking,
		r.Teardowns, r.Reroutes, r.Errors, r.P50Micros, r.P99Micros, r.Throughput, r.Elapsed,
		r.Epochs, r.Conflicts, r.Retries)
}

// report assembles the LoadReport of a finished load phase: the client
// tally t, the wall time since start, and the engine's status st.
func (cfg *LoadConfig) report(mode string, t *loopTally, start time.Time, st Stats) LoadReport {
	rep := LoadReport{
		Mode:       mode,
		Requests:   cfg.Requests,
		Clients:    cfg.clients(),
		Seed:       cfg.Seed,
		Provisions: t.prov.Load(),
		Accepted:   t.acc.Load(),
		Blocked:    t.blocked.Load(),
		Teardowns:  t.tears.Load(),
		Reroutes:   t.routes.Load(),
		Errors:     t.errs.Load(),
		Blocking:   t.blocking(),
		P50Micros:  t.lat.Quantile(0.50) * 1e6,
		P99Micros:  t.lat.Quantile(0.99) * 1e6,
		Elapsed:    time.Since(start).Seconds(),
		Epochs:     st.Epoch,
		Conflicts:  st.Conflicts,
		Retries:    st.Retries,
	}
	if rep.Elapsed > 0 {
		rep.Throughput = float64(cfg.Requests) / rep.Elapsed
	}
	return rep
}

// RunSoak hammers a started engine with cfg.Requests seeded mixed
// operations from cfg.Clients goroutines (see clientLoop), then
// (optionally) drains every live connection and audits.
func RunSoak(e *Engine, cfg LoadConfig) (LoadReport, error) {
	start := time.Now()
	t := clientLoop{cfg: cfg, nodes: e.Nodes()}.run(func() caller { return e.call })
	rep := cfg.report("soak", t, start, e.Status())

	if cfg.Drain {
		for _, id := range e.LiveIDs() {
			if resp := e.Teardown(id); !resp.Accepted {
				return rep, fmt.Errorf("drain: teardown of %d failed: %s", id, resp.Reason)
			}
		}
		if err := e.Audit(); err != nil {
			return rep, fmt.Errorf("post-drain audit: %w", err)
		}
		rep.Drained = true
	}
	return rep, nil
}

// call dispatches one client op in-process: RunSoak's transport.
func (e *Engine) call(op string, req Request) (Response, error) {
	switch op {
	case "provision":
		return e.Provision(req), nil
	case "teardown":
		return e.Teardown(req.ID), nil
	}
	return e.Reroute(req.ID), nil
}

// caller issues one client op ("provision", "teardown" or "reroute") and
// returns the daemon's answer; an error is a transport failure.
type caller func(op string, req Request) (Response, error)

// clientLoop is the seeded closed-loop client workload RunSoak (in-process)
// and Drive (over HTTP) share. Work is claimed from a shared atomic counter,
// so the interleaving is racy on purpose while each client's random choices
// stay deterministic: client i draws from rand.New(rand.NewSource(seed+i)).
// Connection IDs are client<<32|k, unique across clients by construction.
// Endpoints are drawn from the served network's nodes.
type clientLoop struct {
	cfg   LoadConfig
	nodes int
	// releaseTail tears down what each client still holds once the load
	// phase ends (counted as teardowns, not timed).
	releaseTail bool
}

// loopTally aggregates one clientLoop run across its clients.
type loopTally struct {
	lat                                     *metrics.Histogram // per-op latency, seconds
	prov, acc, blocked, tears, routes, errs atomic.Int64
	firstErr                                atomic.Pointer[error]
}

func (t *loopTally) blocking() float64 {
	if p := t.prov.Load(); p > 0 {
		return float64(t.blocked.Load()) / float64(p)
	}
	return 0
}

// run drives l.cfg.Clients goroutines, each over its own caller from
// newCaller, until l.cfg.Requests ops have been claimed. A client stops at
// its first transport error.
func (l clientLoop) run(newCaller func() caller) *loopTally {
	t := &loopTally{lat: metrics.NewHistogram(nil)}
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < l.cfg.clients(); c++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			if err := l.client(client, newCaller(), &next, t); err != nil {
				t.errs.Add(1)
				t.firstErr.CompareAndSwap(nil, &err)
			}
		}(c)
	}
	wg.Wait()
	return t
}

func (l clientLoop) client(client int, call caller, next *atomic.Int64, t *loopTally) error {
	rng := rand.New(rand.NewSource(l.cfg.Seed + int64(client)))
	var live []int64
	var k int64
	for {
		n := next.Add(1)
		if n > int64(l.cfg.Requests) {
			break
		}
		t0 := time.Now()
		switch {
		case l.cfg.RerouteEvery > 0 && n%int64(l.cfg.RerouteEvery) == 0 && len(live) > 0:
			if _, err := call("reroute", Request{ID: live[rng.Intn(len(live))]}); err != nil {
				return err
			}
			t.routes.Add(1)
		case len(live) >= l.cfg.maxLive() || (len(live) > 0 && rng.Float64() < teardownFrac):
			id := live[0]
			live = live[1:]
			if _, err := call("teardown", Request{ID: id}); err != nil {
				return err
			}
			t.tears.Add(1)
		default:
			s := rng.Intn(l.nodes)
			d := rng.Intn(l.nodes - 1)
			if d >= s {
				d++
			}
			k++
			id := int64(client)<<32 | k
			resp, err := call("provision", Request{ID: id, Src: s, Dst: d})
			if err != nil {
				return err
			}
			t.prov.Add(1)
			if resp.Accepted {
				t.acc.Add(1)
				live = append(live, id)
			} else {
				t.blocked.Add(1)
			}
		}
		t.lat.Observe(time.Since(t0).Seconds())
	}
	if l.releaseTail {
		for _, id := range live {
			if _, err := call("teardown", Request{ID: id}); err != nil {
				return err
			}
			t.tears.Add(1)
		}
	}
	return nil
}
