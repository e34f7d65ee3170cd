// Package serve is the long-lived concurrent routing daemon behind cmd/wdmd:
// it turns the batch routing engines into an HTTP/JSON request loop
// (provision / teardown / reroute / status) over sharded network state.
//
// Concurrency model — route on snapshots, commit under one lock:
//
//   - Readers (the routing shards, the /debug/net probe, status queries)
//     work against an immutable epoch-stamped snapshot published through an
//     atomic pointer. Publishing epoch N+1 is a copy-on-write clone driven
//     by the per-link LinkStamp journal (wdm.CloneSince): only links touched
//     since epoch N are copied, everything else is shared with the frozen
//     epoch-N snapshot. Routing takes no engine-wide lock.
//   - Each shard owns a region of (s, t) pairs and a warm core.Router
//     behind a FIFO lock (a one-slot channel: waiters are served in arrival
//     order). A request runs to completion on its caller's goroutine: it
//     takes its shard's lock, routes against the latest snapshot, commits,
//     and frees the lock. Independent pairs route in parallel, with
//     per-shard skeleton caches and an optional shared read-only
//     CandidateTable; the engine starts no goroutine per shard.
//   - The commit step runs under one commit mutex, which owns the
//     authoritative *wdm.Network: nothing mutates it without the mutex. It
//     validates the routed paths against that state (optimistic
//     concurrency: a reservation that lost a race fails cleanly), applies
//     the op, and publishes the next snapshot before it returns, so an
//     acknowledged op is visible in the next snapshot its caller can load.
//     Every state-changing commit publishes its own epoch. A conflicted
//     admission is re-routed on the fresh snapshot and retried a bounded
//     number of times before the request is reported blocked.
//
// Per-connection operations are linearized without a per-connection lock:
// a connection's (s, t) pair pins every op that touches it to one shard, and
// an op holds its shard's lock from routing through commit, so no two ops on
// the same connection are ever in flight together.
//
// The commit order is the serialization order of the daemon. With the ops
// journal enabled every commit decision is recorded in that order, and
// Replay re-executes the journal serially on a fresh network, proving the
// concurrent schedule equivalent to its serial commit order (the
// linearizability-style check the concurrency test suite runs).
package serve

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/slo"
	"repro/internal/wdm"
)

// Algo selects the routing discipline for provision and reroute requests.
type Algo int

const (
	// AlgoMinCost is ApproxMinCost (§3.3) — cost only.
	AlgoMinCost Algo = iota
	// AlgoMinLoad is Find_Two_Paths_MinCog (§4.1) — load only.
	AlgoMinLoad
	// AlgoMinLoadCost is the two-phase §4.2 algorithm — load then cost.
	AlgoMinLoadCost
	// AlgoTwoStep is the naive shortest-then-remove baseline.
	AlgoTwoStep
)

func (a Algo) String() string {
	switch a {
	case AlgoMinCost:
		return "min-cost"
	case AlgoMinLoad:
		return "min-load"
	case AlgoMinLoadCost:
		return "min-load-cost"
	case AlgoTwoStep:
		return "two-step"
	}
	return fmt.Sprintf("Algo(%d)", int(a))
}

// ParseAlgo maps an algorithm name (the -algo flag / "algo" request field)
// to the daemon enum.
func ParseAlgo(s string) (Algo, error) {
	switch s {
	case "min-cost":
		return AlgoMinCost, nil
	case "min-load":
		return AlgoMinLoad, nil
	case "min-load-cost":
		return AlgoMinLoadCost, nil
	case "two-step":
		return AlgoTwoStep, nil
	}
	return 0, fmt.Errorf("unknown algorithm %q (min-cost, min-load, min-load-cost, two-step)", s)
}

// route dispatches to the shard's warm router.
func (a Algo) route(r *core.Router, net *wdm.Network, s, t int) (*core.Result, bool) {
	switch a {
	case AlgoMinCost:
		return r.ApproxMinCost(net, s, t)
	case AlgoMinLoad:
		return r.MinLoad(net, s, t)
	case AlgoMinLoadCost:
		return r.MinLoadCost(net, s, t)
	case AlgoTwoStep:
		return r.TwoStepMinCost(net, s, t)
	}
	panic("serve: unknown algorithm")
}

// Config parameterises an Engine.
type Config struct {
	// Shards is the number of routing shards; each owns a region of (s, t)
	// pairs and a warm router (GOMAXPROCS if 0).
	Shards int
	// MaxRetries bounds how often a conflicted admission is re-routed on a
	// fresh snapshot before the request is reported blocked (4 if 0; -1
	// disables retries).
	MaxRetries int
	// Algorithm is the default routing discipline (AlgoMinCost if unset);
	// provision requests may override it per call.
	Algorithm Algo
	// Opts tunes the per-shard routers (nil for defaults). ReuseResult is
	// forced on: shards copy routed paths before submitting them.
	Opts *core.Options
	// Candidates, when positive, prebuilds a shared read-only candidate
	// table with k route pairs per (s, t) that every shard tries before the
	// exact pipeline.
	Candidates int
	// JournalCap retains up to this many commit-ordered journal entries for
	// deterministic replay (0 disables the journal).
	JournalCap int
	// Window enables windowed wall-clock telemetry with this window width in
	// seconds (0 disables telemetry).
	Window float64
	// Retention is the telemetry ring size (timeseries.DefaultRetention if 0).
	Retention int
	// Tracer, when non-nil, records request-scoped routing traces into its
	// flight recorder (served on /debug/flight, /debug/explain/<id>).
	Tracer *obs.Tracer
}

func (c *Config) shards() int {
	if c.Shards > 0 {
		return c.Shards
	}
	return runtime.GOMAXPROCS(0)
}

func (c *Config) maxRetries() int {
	switch {
	case c.MaxRetries > 0:
		return c.MaxRetries
	case c.MaxRetries < 0:
		return 0
	}
	return 4
}

// Reasons a request is not accepted, as reported in Response.Reason.
const (
	ReasonNoRoute     = "no-route"           // the routing tier found no feasible pair
	ReasonConflict    = "conflict"           // lost the optimistic race even after retries
	ReasonDuplicateID = "duplicate-id"       // a live connection already holds the ID
	ReasonUnknownConn = "unknown-connection" // teardown/reroute of an ID not live
	ReasonBadRequest  = "bad-request"        // invalid endpoints or ID
	ReasonClosed      = "engine-closed"      // submitted during/after shutdown
)

// connState is the registry record of one live connection. Paths are
// engine-owned copies; after admission only the commit step writes them.
type connState struct {
	id       int64
	s, d     int
	primary  []wdm.Hop
	backup   []wdm.Hop
	cost     float64
	rerouted int
}

type opKind uint8

const (
	opProvision opKind = iota
	opTeardown
	opReroute
)

// op is one request in flight: it lives on the caller's goroutine from
// dispatch to response.
type op struct {
	kind opKind
	id   int64
	s, d int
	algo Algo

	// New paths (provision, reroute): op-owned copies of the routed pair.
	primary, backup []wdm.Hop
	cost, pathLoad  float64
	// Old paths to release (teardown, reroute): copies of the registry state.
	oldPrimary, oldBackup []wdm.Hop

	snapEpoch uint64 // epoch the paths were routed against
	retries   int

	// Stage attribution (see stageNanos): t0 is the request clock start,
	// last the most recent stage boundary the shard stamped (finishOp folds
	// last → done into commit so the stages sum to the request time), st the
	// accumulated per-stage nanos, traceReq the flight-recorder request ID of
	// the first routing attempt (0 when untraced) echoed as X-Wdmd-Req.
	t0       time.Time
	last     time.Time
	st       stageNanos
	traceReq int64
}

type commitResult struct {
	ok       bool
	conflict bool
	reason   string
	epoch    uint64 // epoch the decision committed into
}

// Engine is the daemon: sharded routing over epoch snapshots, with each
// request committed under one commit lock. Create with New, run with Start,
// serve its Handler, stop with Close.
type Engine struct {
	cfg   Config
	nodes int
	w     int

	// commitMu serializes the commit step and owns store.cur: every write to
	// the authoritative network, and the oracle's read of it, holds it.
	commitMu sync.Mutex
	store    *store
	shards   []*shard

	connMu sync.RWMutex
	conns  map[int64]*connState

	instr   instruments
	journal journal
	tel     *telemetry
	start   time.Time

	// Engine-local counters with no metric: reroutes that committed, and
	// oracle audits run.
	rerouteOK atomic.Int64
	audits    atomic.Int64

	// contention[link] counts commit-time reservation conflicts charged to
	// that link (written under commitMu, atomic so the telemetry prober may
	// read concurrently). The sealed top-K lands in NetState.Contention.
	contention []atomic.Int64

	// watchdog / incidents, when attached, back /debug/slo and
	// /debug/incidents on the engine's Handler.
	watchdog  *slo.Watchdog
	incidents *slo.Capturer

	mu       sync.Mutex
	started  bool
	closed   bool
	inflight sync.WaitGroup
}

// shard owns one region of (s, t) pairs: a warm router behind a FIFO lock.
// All ops touching a connection land on the shard of its pair and hold its
// lock from routing through commit, which linearizes per-connection
// histories for free.
type shard struct {
	idx    int
	e      *Engine
	lock   chan struct{} // one slot: a send takes the lock, a receive frees it
	router *core.Router

	// Per-shard attribution counters for /status (ShardDetail): a hot shard
	// or a conflict-prone region shows up here, not just in the aggregates.
	ops       atomic.Int64
	conflicts atomic.Int64
	retries   atomic.Int64
}

// New builds an engine over a private clone of net. Call Start before
// submitting requests.
func New(net *wdm.Network, cfg Config) *Engine {
	st := newStore(net)
	e := &Engine{
		cfg:     cfg,
		nodes:   net.Nodes(),
		w:       net.W(),
		store:   st,
		conns:   make(map[int64]*connState),
		journal: journal{cap: cfg.JournalCap},
		start:   time.Now(),
	}
	e.contention = make([]atomic.Int64, st.cur.Links())
	e.instr.initTimers()
	e.instr.shards.Set(float64(cfg.shards()))
	e.instr.publish(published)
	// Per-shard router options: ReuseResult is safe (shards copy paths out
	// immediately) and the candidate table — built once from the
	// authoritative clone — is read-only, so every shard may share it.
	var ropts core.Options
	if cfg.Opts != nil {
		ropts = *cfg.Opts
	}
	ropts.ReuseResult = true
	if cfg.Candidates > 0 && ropts.CandidateTable == nil {
		ropts.CandidateTable = core.NewCandidateTable(st.cur, cfg.Candidates)
	}
	e.shards = make([]*shard, cfg.shards())
	for i := range e.shards {
		opts := ropts
		r := core.NewRouter(&opts)
		r.SetTracer(cfg.Tracer)
		e.shards[i] = &shard{idx: i, e: e, lock: make(chan struct{}, 1), router: r}
	}
	e.tel = newTelemetry(e, cfg.Window, cfg.Retention)
	return e
}

// AttachSLO binds a watchdog (plus optional incident capturer) to the
// engine: the watchdog subscribes to the telemetry collector's sealed
// windows, breaches flow into the capturer, and both back /debug/slo and
// /debug/incidents on Handler. Call before Start; requires telemetry
// (Config.Window > 0) since objectives evaluate over sealed windows.
func (e *Engine) AttachSLO(w *slo.Watchdog, c *slo.Capturer) error {
	if w == nil {
		return nil
	}
	if e.tel == nil {
		return fmt.Errorf("serve: SLO watchdog needs telemetry (set Config.Window)")
	}
	e.watchdog, e.incidents = w, c
	w.Bind(e.tel.col)
	if c != nil {
		w.OnBreach(c.HandleBreach)
	}
	return nil
}

// Nodes returns |V| of the served network.
func (e *Engine) Nodes() int { return e.nodes }

// W returns the wavelength count of the served network.
func (e *Engine) W() int { return e.w }

// Start opens the engine for requests and starts the telemetry ticker, the
// only goroutine the engine runs: requests execute on their callers'
// goroutines. It is an error to start twice or after Close.
func (e *Engine) Start() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.started {
		return fmt.Errorf("serve: engine already started")
	}
	if e.closed {
		return fmt.Errorf("serve: engine closed")
	}
	e.started = true
	e.tel.startTicker()
	return nil
}

// Close drains the engine: in-flight requests complete, and telemetry is
// sealed and flushed. It returns the first telemetry sink error, if any,
// and is idempotent.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return e.tel.err()
	}
	e.closed = true
	e.mu.Unlock()

	e.inflight.Wait() // every admitted request has its verdict
	return e.tel.close()
}

// enter registers an in-flight request; it fails when the engine is not
// accepting work. Exit via e.inflight.Done().
func (e *Engine) enter() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.started || e.closed {
		return false
	}
	e.inflight.Add(1)
	return true
}

// shardOf maps an (s, t) pair to its owning shard.
func (e *Engine) shardOf(s, d int) *shard {
	h := uint64(s)*0x9E3779B97F4A7C15 + uint64(d)*0xBF58476D1CE4E5B9
	h ^= h >> 29
	return e.shards[h%uint64(len(e.shards))]
}

// run executes o on its shard: it waits for the shard's lock (the queue
// stage), runs the op's body to a verdict, and frees the lock.
func (sh *shard) run(o *op) commitResult {
	sh.lock <- struct{}{}
	defer func() { <-sh.lock }()
	sh.ops.Add(1)
	switch o.kind {
	case opProvision:
		return sh.provision(o)
	case opTeardown:
		return sh.teardown(o)
	}
	return sh.reroute(o)
}

// Provision routes and establishes a new connection. The request's Algo
// field, when non-empty, overrides the engine default per call.
func (e *Engine) Provision(req Request) Response {
	t0 := time.Now()
	algo := e.cfg.Algorithm
	if req.Algo != "" {
		a, err := ParseAlgo(req.Algo)
		if err != nil {
			return rejectResponse(req.ID, "provision", ReasonBadRequest, err.Error())
		}
		algo = a
	}
	if req.ID < 0 || req.Src < 0 || req.Src >= e.nodes || req.Dst < 0 || req.Dst >= e.nodes || req.Src == req.Dst {
		return rejectResponse(req.ID, "provision", ReasonBadRequest,
			fmt.Sprintf("want 0 <= src,dst < %d, src != dst, id >= 0", e.nodes))
	}
	if !e.enter() {
		return rejectResponse(req.ID, "provision", ReasonClosed, "")
	}
	defer e.inflight.Done()
	e.instr.provisions.Inc()

	o := op{kind: opProvision, id: req.ID, s: req.Src, d: req.Dst, algo: algo, t0: t0}
	return e.finishOp(&o, e.shardOf(req.Src, req.Dst).run(&o), "provision", t0)
}

// Teardown releases a live connection.
func (e *Engine) Teardown(id int64) Response {
	t0 := time.Now()
	if !e.enter() {
		return rejectResponse(id, "teardown", ReasonClosed, "")
	}
	defer e.inflight.Done()
	e.instr.teardowns.Inc()

	c, ok := e.lookupConn(id)
	if !ok {
		return rejectResponse(id, "teardown", ReasonUnknownConn, "")
	}
	o := op{kind: opTeardown, id: id, s: c.s, d: c.d, t0: t0}
	return e.finishOp(&o, e.shardOf(c.s, c.d).run(&o), "teardown", t0)
}

// Reroute computes a fresh pair for a live connection on the current
// snapshot and atomically swaps it in at commit (make-before-break: the old
// paths are released and the new ones reserved inside one epoch; on a lost
// race the old paths are restored and the reroute retried).
func (e *Engine) Reroute(id int64) Response {
	t0 := time.Now()
	if !e.enter() {
		return rejectResponse(id, "reroute", ReasonClosed, "")
	}
	defer e.inflight.Done()
	e.instr.reroutes.Inc()

	c, ok := e.lookupConn(id)
	if !ok {
		return rejectResponse(id, "reroute", ReasonUnknownConn, "")
	}
	o := op{kind: opReroute, id: id, s: c.s, d: c.d, algo: e.cfg.Algorithm, t0: t0}
	return e.finishOp(&o, e.shardOf(c.s, c.d).run(&o), "reroute", t0)
}

// Audit runs the verification oracle under the commit lock, so it observes
// a state no commit is halfway through. It validates the Eq. 2 load
// bookkeeping, every live connection's reservation legality and pairwise
// edge-disjointness, and exact capacity conservation (each busy (link, λ)
// channel is held by exactly one live connection, and no channel by two).
func (e *Engine) Audit() error {
	if !e.enter() {
		return fmt.Errorf("serve: %s", ReasonClosed)
	}
	defer e.inflight.Done()
	e.audits.Add(1)
	e.commitMu.Lock()
	defer e.commitMu.Unlock()
	return e.oracle(e.store.cur)
}

// finishOp folds a commit verdict into the engine's instruments and the
// response.
func (e *Engine) finishOp(o *op, cr commitResult, kind string, t0 time.Time) Response {
	// Close the attribution ledger: the tail (shard's last stamp → now, i.e.
	// freeing the shard lock and returning to this frame) folds into the
	// commit stage, so queue+snap+route+commit+reroute equals tDone−t0
	// exactly.
	tDone := time.Now()
	if !o.last.IsZero() {
		o.st.commit += tDone.Sub(o.last).Nanoseconds()
	}
	e.observeStages(o)
	e.instr.requestTime.Observe(tDone.Sub(t0))
	resp := Response{
		ID:       o.id,
		Op:       kind,
		Accepted: cr.ok,
		Reason:   cr.reason,
		Epoch:    cr.epoch,
		Shard:    e.shardOf(o.s, o.d).idx,
		Retries:  o.retries,
		Req:      o.traceReq,
	}
	switch o.kind {
	case opProvision:
		if cr.ok {
			e.instr.accepted.Inc()
			resp.Cost = o.cost
			resp.PathLoad = o.pathLoad
			resp.Primary = hopsJSON(o.primary)
			resp.Backup = hopsJSON(o.backup)
		} else {
			e.instr.blocked.Inc()
		}
	case opReroute:
		if cr.ok {
			e.rerouteOK.Add(1)
			resp.Cost = o.cost
			resp.PathLoad = o.pathLoad
			resp.Primary = hopsJSON(o.primary)
			resp.Backup = hopsJSON(o.backup)
		}
	}
	e.syncGauges()
	return resp
}

// provision routes on the latest snapshot and commits, re-routing on a
// fresh snapshot after each optimistic conflict up to the retry budget.
//
//wdm:hotpath
func (sh *shard) provision(o *op) commitResult {
	e := sh.e
	// Stage stamps: t opens the current attempt (shard lock taken on
	// attempt 1, the previous commit verdict on retries); attempt 1 splits
	// into snap/route/commit segments, retries fold whole into the reroute
	// stage.
	t := time.Now()
	o.st.queue = t.Sub(o.t0).Nanoseconds()
	first := true
	for {
		snap := e.store.load()
		tSnap := time.Now()
		res, ok := o.algo.route(sh.router, snap.net, o.s, o.d)
		tRoute := time.Now()
		e.instr.routeTime.Observe(tRoute.Sub(tSnap))
		if first {
			o.st.snap = tSnap.Sub(t).Nanoseconds()
			o.st.route = tRoute.Sub(tSnap).Nanoseconds()
			o.st.tier = sh.router.LastTier()
			if id := sh.router.LastTraceID(); id > 0 {
				o.traceReq = id
			}
		}
		if !ok {
			if !first {
				o.st.reroute += tRoute.Sub(t).Nanoseconds()
			}
			o.last = tRoute
			return commitResult{ok: false, reason: ReasonNoRoute, epoch: snap.epoch}
		}
		o.primary = copyHops(o.primary, res.Primary)
		o.backup = copyHops(o.backup, res.Backup)
		o.cost, o.pathLoad = res.Cost, res.PathLoad
		o.snapEpoch = snap.epoch
		cr := e.commit(o)
		tCommit := time.Now()
		if first {
			o.st.commit = tCommit.Sub(tRoute).Nanoseconds()
		} else {
			o.st.reroute += tCommit.Sub(t).Nanoseconds()
		}
		o.last = tCommit
		if cr.conflict {
			sh.conflicts.Add(1)
			if o.retries < e.cfg.maxRetries() {
				o.retries++
				sh.retries.Add(1)
				e.instr.retries.Inc()
				first = false
				t = tCommit
				continue
			}
		}
		return cr
	}
}

// teardown snapshots the connection's current paths (stable: ops on this
// connection are serialized by this shard's lock) and commits the release.
func (sh *shard) teardown(o *op) commitResult {
	e := sh.e
	t := time.Now()
	o.st.queue = t.Sub(o.t0).Nanoseconds()
	c, ok := e.lookupConn(o.id)
	if !ok {
		o.last = time.Now()
		o.st.snap = o.last.Sub(t).Nanoseconds()
		return commitResult{ok: false, reason: ReasonUnknownConn, epoch: e.store.load().epoch}
	}
	o.oldPrimary = append(o.oldPrimary[:0], c.primary...)
	o.oldBackup = append(o.oldBackup[:0], c.backup...)
	tPrep := time.Now()
	o.st.snap = tPrep.Sub(t).Nanoseconds() // registry lookup + path copy
	cr := e.commit(o)
	o.last = time.Now()
	o.st.commit = o.last.Sub(tPrep).Nanoseconds()
	return cr
}

// reroute routes a fresh pair on the latest snapshot (the connection's own
// wavelengths still held — make-before-break) and commits the swap.
//
//wdm:hotpath
func (sh *shard) reroute(o *op) commitResult {
	e := sh.e
	t := time.Now()
	o.st.queue = t.Sub(o.t0).Nanoseconds()
	first := true
	for {
		c, ok := e.lookupConn(o.id)
		if !ok {
			now := time.Now()
			if first {
				o.st.snap = now.Sub(t).Nanoseconds()
			} else {
				o.st.reroute += now.Sub(t).Nanoseconds()
			}
			o.last = now
			return commitResult{ok: false, reason: ReasonUnknownConn, epoch: e.store.load().epoch}
		}
		o.oldPrimary = append(o.oldPrimary[:0], c.primary...)
		o.oldBackup = append(o.oldBackup[:0], c.backup...)
		snap := e.store.load()
		tSnap := time.Now()
		res, ok := o.algo.route(sh.router, snap.net, o.s, o.d)
		tRoute := time.Now()
		e.instr.routeTime.Observe(tRoute.Sub(tSnap))
		if first {
			// snap covers registry lookup + old-path copy + snapshot acquire.
			o.st.snap = tSnap.Sub(t).Nanoseconds()
			o.st.route = tRoute.Sub(tSnap).Nanoseconds()
			o.st.tier = sh.router.LastTier()
			if id := sh.router.LastTraceID(); id > 0 {
				o.traceReq = id
			}
		}
		if !ok {
			if !first {
				o.st.reroute += tRoute.Sub(t).Nanoseconds()
			}
			o.last = tRoute
			return commitResult{ok: false, reason: ReasonNoRoute, epoch: snap.epoch}
		}
		o.primary = copyHops(o.primary, res.Primary)
		o.backup = copyHops(o.backup, res.Backup)
		o.cost, o.pathLoad = res.Cost, res.PathLoad
		o.snapEpoch = snap.epoch
		cr := e.commit(o)
		tCommit := time.Now()
		if first {
			o.st.commit = tCommit.Sub(tRoute).Nanoseconds()
		} else {
			o.st.reroute += tCommit.Sub(t).Nanoseconds()
		}
		o.last = tCommit
		if cr.conflict {
			sh.conflicts.Add(1)
			if o.retries < e.cfg.maxRetries() {
				o.retries++
				sh.retries.Add(1)
				e.instr.retries.Inc()
				first = false
				t = tCommit
				continue
			}
		}
		return cr
	}
}

// commit is the commit step, the only writer of the authoritative network:
// under the commit lock it applies o, publishes the next copy-on-write
// snapshot if o changed the state, and journals the decision.
func (e *Engine) commit(o *op) commitResult {
	e.commitMu.Lock()
	defer e.commitMu.Unlock()
	cr := e.applyOne(o)
	if cr.ok {
		cr.epoch = e.store.publish()
		e.instr.epochs.Inc()
		e.instr.epoch.Set(float64(cr.epoch))
	} else {
		cr.epoch = e.store.load().epoch
	}
	e.journal.record(o, cr)
	return cr
}

// applyOne validates and applies a single op against the authoritative
// network (commitMu held). Reservation failures are reported as conflicts
// (the op was routed on a stale snapshot) and never applied partially:
// wdm.Reserve rolls back.
func (e *Engine) applyOne(o *op) commitResult {
	cur := e.store.cur
	switch o.kind {
	case opProvision:
		if _, dup := e.lookupConn(o.id); dup {
			return commitResult{ok: false, reason: ReasonDuplicateID}
		}
		p := wdm.Semilightpath{Hops: o.primary}
		b := wdm.Semilightpath{Hops: o.backup}
		if err := cur.Reserve(&p); err != nil {
			e.conflictNoted(o)
			return commitResult{conflict: true, reason: ReasonConflict}
		}
		if err := cur.Reserve(&b); err != nil {
			e.mustRelease(o.primary)
			e.conflictNoted(o)
			return commitResult{conflict: true, reason: ReasonConflict}
		}
		e.putConn(o)
		return commitResult{ok: true}

	case opTeardown:
		if _, live := e.lookupConn(o.id); !live {
			return commitResult{ok: false, reason: ReasonUnknownConn}
		}
		e.mustRelease(o.oldPrimary)
		e.mustRelease(o.oldBackup)
		e.delConn(o.id)
		return commitResult{ok: true}

	case opReroute:
		c, live := e.lookupConn(o.id)
		if !live {
			return commitResult{ok: false, reason: ReasonUnknownConn}
		}
		e.mustRelease(o.oldPrimary)
		e.mustRelease(o.oldBackup)
		p := wdm.Semilightpath{Hops: o.primary}
		b := wdm.Semilightpath{Hops: o.backup}
		err := cur.Reserve(&p)
		if err == nil {
			if err = cur.Reserve(&b); err != nil {
				e.mustRelease(o.primary)
			}
		}
		if err != nil {
			// Lost the race: restore the old paths (they were just released
			// within this serialized commit step, so this cannot fail) and
			// let the shard retry on the fresh snapshot.
			e.mustReserve(o.oldPrimary)
			e.mustReserve(o.oldBackup)
			e.conflictNoted(o)
			return commitResult{conflict: true, reason: ReasonConflict}
		}
		e.connMu.Lock()
		c.primary = append(c.primary[:0], o.primary...)
		c.backup = append(c.backup[:0], o.backup...)
		c.cost = o.cost
		c.rerouted++
		e.connMu.Unlock()
		return commitResult{ok: true}
	}
	panic("serve: unknown op kind")
}

// conflictNoted counts one commit-time reservation conflict (the counter
// behind /status, /metrics and the per-window conflicts rate) and charges it
// to the contended links (commitMu held).
func (e *Engine) conflictNoted(o *op) {
	e.instr.conflicts.Inc()
	e.noteContention(o)
}

// mustRelease returns held wavelengths to the pool; failure means the
// engine's bookkeeping is corrupt, which is unrecoverable.
func (e *Engine) mustRelease(hops []wdm.Hop) {
	sl := wdm.Semilightpath{Hops: hops}
	if err := e.store.cur.ReleasePath(&sl); err != nil {
		panic("serve: inconsistent release: " + err.Error())
	}
}

// mustReserve re-locks wavelengths released earlier in the same serialized
// commit step; failure is likewise unrecoverable.
func (e *Engine) mustReserve(hops []wdm.Hop) {
	sl := wdm.Semilightpath{Hops: hops}
	if err := e.store.cur.Reserve(&sl); err != nil {
		panic("serve: inconsistent re-reserve: " + err.Error())
	}
}

// oracle is the Audit validation pass (commitMu held).
func (e *Engine) oracle(cur *wdm.Network) error {
	if err := check.LoadAccounting(cur); err != nil {
		return err
	}
	type chanKey struct{ link, lambda int }
	held := make(map[chanKey]int64)
	e.connMu.RLock()
	defer e.connMu.RUnlock()
	for id, c := range e.conns {
		p := &wdm.Semilightpath{Hops: c.primary}
		b := &wdm.Semilightpath{Hops: c.backup}
		if err := check.Path(cur, p, c.s, c.d); err != nil {
			return fmt.Errorf("conn %d primary: %w", id, err)
		}
		if err := check.Reserved(cur, p); err != nil {
			return fmt.Errorf("conn %d primary: %w", id, err)
		}
		if err := check.Path(cur, b, c.s, c.d); err != nil {
			return fmt.Errorf("conn %d backup: %w", id, err)
		}
		if err := check.Reserved(cur, b); err != nil {
			return fmt.Errorf("conn %d backup: %w", id, err)
		}
		if err := check.EdgeDisjoint(p, b); err != nil {
			return fmt.Errorf("conn %d: %w", id, err)
		}
		for _, hops := range [2][]wdm.Hop{c.primary, c.backup} {
			for _, h := range hops {
				k := chanKey{h.Link, h.Wavelength}
				if prev, dup := held[k]; dup {
					return fmt.Errorf("channel (link %d, λ%d) double-booked by conns %d and %d",
						h.Link, h.Wavelength, prev, id)
				}
				held[k] = id
			}
		}
	}
	// Conservation: every busy channel is held by exactly one connection and
	// every available channel by none.
	for id := 0; id < cur.Links(); id++ {
		l := cur.Link(id)
		var leak error
		l.Lambda().ForEach(func(lam int) bool {
			if l.HasAvail(lam) {
				if owner, dup := held[chanKey{id, lam}]; dup {
					leak = fmt.Errorf("channel (link %d, λ%d) available but held by conn %d", id, lam, owner)
					return false
				}
				return true
			}
			if _, ok := held[chanKey{id, lam}]; !ok {
				leak = fmt.Errorf("channel (link %d, λ%d) busy but owned by no live connection", id, lam)
				return false
			}
			return true
		})
		if leak != nil {
			return leak
		}
	}
	return nil
}

// lookupConn fetches a registry record (shared pointer; the commit step is
// the only mutator of path fields, shards copy them before use).
func (e *Engine) lookupConn(id int64) (*connState, bool) {
	e.connMu.RLock()
	c, ok := e.conns[id]
	e.connMu.RUnlock()
	return c, ok
}

// putConn registers an admitted connection with engine-owned copies of its
// paths (commitMu held).
//
//wdm:coldpath one registry record and two path copies per admitted connection, counted in TestProvisionAllocs' budget
func (e *Engine) putConn(o *op) {
	c := &connState{
		id: o.id, s: o.s, d: o.d,
		primary: append([]wdm.Hop(nil), o.primary...),
		backup:  append([]wdm.Hop(nil), o.backup...),
		cost:    o.cost,
	}
	e.connMu.Lock()
	e.conns[c.id] = c
	e.connMu.Unlock()
}

func (e *Engine) delConn(id int64) {
	e.connMu.Lock()
	delete(e.conns, id)
	e.connMu.Unlock()
}

// LiveConnections returns the number of currently established connections.
func (e *Engine) LiveConnections() int {
	e.connMu.RLock()
	n := len(e.conns)
	e.connMu.RUnlock()
	return n
}

// LiveIDs returns the IDs of all live connections (order unspecified) — the
// drain hook for soak drivers and tests.
func (e *Engine) LiveIDs() []int64 {
	e.connMu.RLock()
	ids := make([]int64, 0, len(e.conns))
	for id := range e.conns {
		ids = append(ids, id)
	}
	e.connMu.RUnlock()
	return ids
}

// Snapshot returns the current epoch and its frozen network. The returned
// network is immutable and shared — read only. A caller holding the pointer
// is pinned to that epoch: later commits never mutate it.
func (e *Engine) Snapshot() (uint64, *wdm.Network) {
	s := e.store.load()
	return s.epoch, s.net
}

// Journal returns a copy of the commit-ordered ops journal and whether it
// was truncated at the configured capacity.
func (e *Engine) Journal() ([]JournalEntry, bool) {
	return e.journal.snapshot()
}

// syncGauges refreshes the live progress gauges after each request.
func (e *Engine) syncGauges() {
	e.instr.liveConns.Set(float64(e.LiveConnections()))
	if prov := e.instr.provisions.Value(); prov > 0 {
		e.instr.blockingProb.Set(float64(e.instr.blocked.Value()) / float64(prov))
	}
}

// Stats is the /status payload.
type Stats struct {
	Epoch        uint64  `json:"epoch"`
	StateVersion uint64  `json:"state_version"`
	Nodes        int     `json:"nodes"`
	Links        int     `json:"links"`
	W            int     `json:"wavelengths"`
	Shards       int     `json:"shards"`
	LiveConns    int     `json:"live_connections"`
	NetworkLoad  float64 `json:"network_load"`
	Provisions   int64   `json:"provisions"`
	Accepted     int64   `json:"accepted"`
	Blocked      int64   `json:"blocked"`
	Teardowns    int64   `json:"teardowns"`
	Reroutes     int64   `json:"reroutes"`
	RerouteOK    int64   `json:"reroute_ok"`
	Conflicts    int64   `json:"conflicts"`
	Retries      int64   `json:"retries"`
	BlockingProb float64 `json:"blocking_probability"`
	Uptime       float64 `json:"uptime_seconds"`
	// ShardDetail attributes ops/conflicts/retries to individual shards.
	ShardDetail []ShardStats `json:"shard_detail,omitempty"`
}

// Status reports the daemon's aggregate state from the latest snapshot; it
// never touches the authoritative network or takes a lock a request holds.
func (e *Engine) Status() Stats {
	snap := e.store.load()
	st := Stats{
		Epoch:        snap.epoch,
		StateVersion: snap.net.StateVersion(),
		Nodes:        e.nodes,
		Links:        snap.net.Links(),
		W:            e.w,
		Shards:       len(e.shards),
		LiveConns:    e.LiveConnections(),
		NetworkLoad:  snap.net.NetworkLoad(),
		Provisions:   e.instr.provisions.Value(),
		Accepted:     e.instr.accepted.Value(),
		Blocked:      e.instr.blocked.Value(),
		Teardowns:    e.instr.teardowns.Value(),
		Reroutes:     e.instr.reroutes.Value(),
		RerouteOK:    e.rerouteOK.Load(),
		Conflicts:    e.instr.conflicts.Value(),
		Retries:      e.instr.retries.Value(),
		Uptime:       time.Since(e.start).Seconds(),
		ShardDetail:  e.shardDetail(),
	}
	if st.Provisions > 0 {
		st.BlockingProb = float64(st.Blocked) / float64(st.Provisions)
	}
	if math.IsNaN(st.NetworkLoad) {
		st.NetworkLoad = 0
	}
	return st
}

// copyHops copies a routed semilightpath into op-owned storage (the router's
// arena is overwritten by its next call).
func copyHops(dst []wdm.Hop, p *wdm.Semilightpath) []wdm.Hop {
	if p == nil {
		return dst[:0]
	}
	return append(dst[:0], p.Hops...)
}
