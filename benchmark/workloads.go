package main

import (
	"errors"
	"slices"
	"time"

	"repro/internal/wdm"
	"repro/internal/workload"
)

// setupReps is how many complete set-ups a run times; setup_s is their
// median, and the last set-up serves the run. One set-up takes from a
// fraction of a millisecond (serving) to about ten (sim) and varies by a
// third from one to the next on a shared host; the median of many is what
// repeats between runs. The first few dozen serving set-ups run slower than
// the rest: with 21, eight http-closed runs' unscaled medians ranged over
// 0.3 of their median; with 101, seven of eight lay within 0.05 of it.
const setupReps = 101

// warmupShare is the length of a serving workload's untimed warm-up, as a
// share of its timed phase.
const warmupShare = 0.12

// runConfig is what a workload run is given.
type runConfig struct {
	seed    int64
	seconds float64   // length of the timed phase
	rec     *recorder // nil on untraced runs
}

func (c runConfig) duration() time.Duration { return seconds(c.seconds) }
func (c runConfig) warmup() time.Duration   { return seconds(c.seconds * warmupShare) }

// kernelBudget is how long each kernel and router tier is timed on the
// captured state: one second on a full-length run, less on a short one.
func (c runConfig) kernelBudget() time.Duration { return min(time.Second, seconds(c.seconds/10)) }

// timeSetup performs setup setupReps times, releasing each result but the
// last, which it returns. setup_s is the median time at the host speed
// probed, on one core as set-up mostly uses, before and after the set-ups.
func timeSetup[T any](o *outcome, setup func() (T, error), release func(T) error) (T, error) {
	var zero T
	before := probeHost(1)
	times := make([]float64, 0, setupReps)
	var s T
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			if err := release(s); err != nil {
				return zero, err
			}
		}
		t0 := time.Now()
		var err error
		if s, err = setup(); err != nil {
			return zero, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	o.setupS = median(times) * hostSpeed(slices.Concat(before, probeHost(1)))
	return s, nil
}

// runners maps each workload to its implementation.
var runners = map[string]func(runConfig) (*outcome, error){
	"sim-mincost":   runSim,
	"engine-closed": func(c runConfig) (*outcome, error) { return runClosedServing(c, false) },
	"http-closed":   func(c runConfig) (*outcome, error) { return runClosedServing(c, true) },
	"http-open":     runHTTPOpen,
}

// callers returns one caller per load goroutine and a func releasing them.
func callers(s *served, n int) ([]caller, func()) {
	calls := make([]caller, n)
	var closers []func()
	for i := range calls {
		if s.srv == nil {
			calls[i] = engineCaller(s.engine)
			continue
		}
		call, closeFn := httpCaller(s.url)
		calls[i], closers = call, append(closers, closeFn)
	}
	return calls, func() {
		for _, f := range closers {
			f()
		}
	}
}

// timedPhase brackets a serving workload's timed phase: runtime counters,
// /metrics and /status before and after, and the engine state at its end.
type timedPhase struct {
	s             *served
	before, after scrape
	runAfter      runStats
	snap          *wdm.Network
	err           error
}

func (p *timedPhase) begin(o *outcome) {
	var err error
	p.before, err = p.s.scrape()
	p.err = errors.Join(p.err, err)
	o.run = readRunStats()
	o.rss.start()
}

func (p *timedPhase) end(o *outcome) {
	o.rss.finish()
	p.runAfter = readRunStats()
	_, p.snap = p.s.engine.Snapshot()
	var err error
	p.after, err = p.s.scrape()
	p.err = errors.Join(p.err, err)
}

// finish checks the engine after the benchmark released everything it owns,
// shuts the stack down, and, on a traced run, fills the per-layer metrics.
func (p *timedPhase) finish(o *outcome, c runConfig, release func()) error {
	if n := p.s.engine.LiveConnections(); n != 0 {
		o.violate("%d connections still live after the benchmark tore down all it owns", n)
	}
	if err := p.s.engine.Audit(); err != nil {
		o.violate("audit after drain: %v", err)
	}
	release()
	if err := errors.Join(p.err, p.s.close()); err != nil {
		return err
	}
	if c.rec != nil {
		o.layers = timeKernels(p.snap, c.kernelBudget())
		o.ledger = map[string]float64{}
		servingLayers(o, c.rec, p.before, p.after, p.s.srv != nil)
		o.addRunLayers(p.runAfter)
	}
	return nil
}

// runClosedServing is engine-closed and http-closed: two closed-loop
// clients with the wdmd -soak operation mix, against the engine directly
// or over one keep-alive HTTP connection each.
func runClosedServing(c runConfig, withHTTP bool) (*outcome, error) {
	o := &outcome{workers: closedClients}
	s, err := timeSetup(o, func() (*served, error) { return startServed(withHTTP, c.rec) }, (*served).close)
	if err != nil {
		return nil, err
	}
	calls, release := callers(s, closedClients)
	cs := newClosedClients(calls, s.engine.Nodes(), c.seed)
	runClients(cs, c.warmup(), nil, nil)
	p := &timedPhase{s: s}
	p.begin(o)
	o.timeWindows(c.duration(), func(_ int, w *window, length time.Duration) { runClients(cs, length, w, c.rec) })
	p.end(o)
	for _, cl := range cs {
		cl.drain()
		o.merge(&cl.o)
	}
	return o, p.finish(o, c, release)
}

// The http-open workload offers 30 Erlang as 1000 arrivals/s with a mean
// holding time of 30 ms, from two sender connections: with the teardowns,
// about 1900 operations/s, some 40% of what http-closed sustains on the
// same host. At 1500/s (over 60%), queueing magnified host noise until the
// median latency of runs of the same code spread by a third and more.
const (
	openRate    = 1000.0
	openHolding = 0.030
	openSenders = 2
)

// openArrivals generates the Poisson arrivals of secs seconds.
func openArrivals(nodes int, secs float64, seed int64) []workload.Request {
	reqs := workload.Poisson(workload.PoissonConfig{
		Nodes: nodes, ArrivalRate: openRate, MeanHolding: openHolding,
		Count: int(openRate*secs*1.2) + 100, Seed: seed,
	})
	for i, r := range reqs {
		if r.Arrival >= secs {
			return reqs[:i]
		}
	}
	return reqs
}

// openWindow returns the arrivals due in window i, [i·length, (i+1)·length),
// timed from the window's start. Each window's schedule runs to completion,
// every connection torn down, before the host is probed and the next starts.
func openWindow(reqs []workload.Request, i int, length time.Duration) []workload.Request {
	from, to := float64(i)*length.Seconds(), float64(i+1)*length.Seconds()
	var out []workload.Request
	for _, r := range reqs {
		if r.Arrival >= from && r.Arrival < to {
			r.Arrival -= from
			out = append(out, r)
		}
	}
	return out
}

func runHTTPOpen(c runConfig) (*outcome, error) {
	o := &outcome{workers: openSenders, offered: true}
	s, err := timeSetup(o, func() (*served, error) { return startServed(true, c.rec) }, (*served).close)
	if err != nil {
		return nil, err
	}
	calls, release := callers(s, openSenders)
	nodes := s.engine.Nodes()

	// Warm-up: its own schedule, run to completion (every connection torn
	// down) before the timed schedule starts, so the phases never overlap.
	for _, r := range runOpen(openArrivals(nodes, c.warmup().Seconds(), c.seed*2+1), 1<<40, calls, nil) {
		o.attempted++
		if r.failed {
			o.failed++
			o.noteFailure(r.why)
		}
	}

	arrivals := openArrivals(nodes, c.seconds, c.seed*2)
	var late latencies
	p := &timedPhase{s: s}
	p.begin(o)
	o.timeWindows(c.duration(), func(i int, w *window, length time.Duration) {
		for _, r := range runOpen(openWindow(arrivals, i, length), 2<<40, calls, c.rec) {
			o.attempted++
			o.timedOps++
			if r.failed {
				o.failed++
				o.noteFailure(r.why)
			} else if r.op == opProvision {
				o.countProvision(r.accepted, r.cost)
			}
			w.lat.add(r.done.Sub(r.ready))
			o.busy += r.done.Sub(r.sent)
			late.add(r.sent.Sub(r.due))
		}
	})
	p.end(o)
	if err := p.finish(o, c, release); err != nil {
		return nil, err
	}
	if c.rec != nil {
		sorted := late.sorted()
		o.ledger["loadgen.late_p50_us"] = nearestRank(sorted, 0.50) / 1e3
		o.ledger["loadgen.late_p99_us"] = nearestRank(sorted, 0.99) / 1e3
	}
	return o, nil
}
