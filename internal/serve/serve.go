// Package serve is the long-lived concurrent routing daemon behind cmd/wdmd:
// it turns the batch routing engines into an HTTP/JSON request loop
// (provision / teardown / reroute / status) over snapshot-isolated network
// state.
//
// Concurrency model — route on snapshots, commit under one lock:
//
//   - Readers (the routers, the /debug/net probe, status queries) pin an
//     epoch-stamped snapshot published through an atomic pointer, and
//     nothing writes it while it is published or pinned. Publishing epoch
//     N+1 recycles a retired snapshot that no reader pins: the commit step
//     brings its network up to the authoritative state in place
//     (wdm.Network.SyncInto, driven by the per-link LinkStamp journal: only
//     links touched since that snapshot's version are copied) and swaps it
//     in, so a warm publish allocates nothing. Engine.Snapshot marks its
//     snapshot kept, never to be recycled. Routing takes no engine-wide
//     lock.
//   - A pool of GOMAXPROCS warm core.Routers sits in a buffered channel
//     (waiters on an empty pool are served in arrival order). A request
//     runs to completion on its caller's goroutine: a provision or reroute
//     takes any free router, routes against the latest snapshot, commits,
//     and returns the router; a teardown takes no router and goes straight
//     to the commit step. Each router keeps its own skeleton caches, and an
//     optional read-only CandidateTable is shared by all of them; the engine
//     starts no goroutine per router.
//   - The commit step runs under one commit mutex, the single writer of
//     the connection table (package conns) that owns the authoritative
//     *wdm.Network: nothing mutates it without the mutex. The table
//     validates the routed paths against that state (optimistic
//     concurrency: a reservation that lost a race fails cleanly) and
//     applies the op; the commit step then publishes the next snapshot
//     before it returns, so an acknowledged op is visible in the next
//     snapshot its caller can load.
//     Every state-changing commit publishes its own epoch. A conflicted
//     admission is re-routed on the fresh snapshot and retried a bounded
//     number of times before the request is reported blocked.
//
// Per-connection operations are linearized at the commit step, without a
// per-connection lock. Two ops on one connection may route at once, but they
// commit one at a time, and each commit validates against the state the
// previous one left: the table refuses ops on a connection that is no longer
// live, a reroute releases the connection's current pair (whichever commit
// installed it) before it reserves its own, and a reroute routed for
// endpoints the ID no longer carries is refused.
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

	"repro/internal/conns"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/slo"
	"repro/internal/wdm"
)

// The routing disciplines for Config.Algorithm.
const (
	AlgoMinCost     = core.MinCost
	AlgoMinLoad     = core.MinLoad
	AlgoMinLoadCost = core.MinLoadCost
	AlgoTwoStep     = core.TwoStep
)

// Config parameterises an Engine.
type Config struct {
	// MaxRetries bounds how often a conflicted admission is re-routed on a
	// fresh snapshot before the request is reported blocked (4 if 0; -1
	// disables retries).
	MaxRetries int
	// Algorithm is the default routing discipline (AlgoMinCost if unset);
	// provision requests may override it per call.
	Algorithm core.Algorithm
	// Candidates, when positive, prebuilds a shared read-only candidate
	// table with k route pairs per (s, t) that every router tries before the
	// exact pipeline.
	Candidates int
	// JournalCap retains up to this many commit-ordered journal entries for
	// deterministic replay (0 disables the journal).
	JournalCap int
	// Window enables windowed wall-clock telemetry with this window width in
	// seconds (0 disables telemetry).
	Window float64
	// Tracer, when non-nil, records request-scoped routing traces into its
	// flight recorder (served on /debug/flight, /debug/explain/<id>).
	Tracer *obs.Tracer
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

type opKind uint8

const (
	opProvision opKind = iota
	opTeardown
	opReroute
)

// opNames are the ops' names on the wire and in the journal.
var opNames = [...]string{opProvision: "provision", opTeardown: "teardown", opReroute: "reroute"}

// op is one request in flight: it lives on the caller's goroutine from
// dispatch to response.
type op struct {
	kind opKind
	id   int64
	s, d int
	algo core.Algorithm

	// The routed pair (provision, reroute): op-owned copies of the paths.
	pair           conns.Pair
	cost, pathLoad float64

	retries int

	// Stage attribution (see stageNanos): t0 is the request clock start,
	// last the most recent stage boundary the op stamped (finishOp folds
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

// Engine is the daemon: pooled routers over epoch snapshots, with each
// request committed under one commit lock. Create with New, run with Start,
// serve its Handler, stop with Close.
type Engine struct {
	cfg   Config
	nodes int
	w     int

	// commitMu serializes the commit step and is the connection table's
	// single writer: every change to the authoritative network (store.cur,
	// owned by tab), and every audit of it, holds it.
	commitMu sync.Mutex
	store    *store
	tab      *conns.Table[struct{}]
	// routers is the pool of warm routers: a receive takes one, a send
	// returns it.
	routers chan *core.Router

	instr   instruments
	journal journal
	tel     *telemetry
	start   time.Time

	// Engine-local counters with no metric: reroutes that committed, and
	// audits run.
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

// New builds an engine over a private clone of net. Call Start before
// submitting requests.
func New(net *wdm.Network, cfg Config) *Engine {
	st := newStore(net)
	e := &Engine{
		cfg:     cfg,
		nodes:   net.Nodes(),
		w:       net.W(),
		store:   st,
		tab:     conns.New[struct{}](st.cur),
		journal: journal{cap: cfg.JournalCap},
		start:   time.Now(),
	}
	e.contention = make([]atomic.Int64, st.cur.Links())
	e.instr.initTimers()
	// Router options: ReuseResult is safe (route copies paths out
	// immediately) and the options and candidate table — built once from
	// the authoritative clone — are read-only, so every router shares them.
	opts := &core.Options{ReuseResult: true}
	if cfg.Candidates > 0 {
		opts.CandidateTable = core.NewCandidateTable(st.cur, cfg.Candidates)
	}
	e.routers = make(chan *core.Router, runtime.GOMAXPROCS(0))
	for range cap(e.routers) {
		r := core.NewRouter(opts)
		r.SetTracer(cfg.Tracer)
		e.routers <- r
	}
	e.instr.routers.Set(float64(cap(e.routers)))
	e.instr.publish(published)
	e.tel = newTelemetry(e, cfg.Window)
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

// run executes o to a verdict. A teardown goes straight to the commit step;
// a provision or reroute waits for a free router (the queue stage), routes
// and commits on it, and returns it to the pool.
func (e *Engine) run(o *op) commitResult {
	if o.kind == opTeardown {
		return e.teardown(o)
	}
	r := <-e.routers
	defer func() { e.routers <- r }()
	return e.route(r, o)
}

// Provision routes and establishes a new connection. The request's Algo
// field, when non-empty, overrides the engine default per call.
func (e *Engine) Provision(req Request) Response {
	t0 := time.Now()
	algo := e.cfg.Algorithm
	if req.Algo != "" {
		a, err := core.ParseAlgorithm(req.Algo)
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
	return e.finishOp(&o, e.run(&o), t0)
}

// Teardown releases a live connection.
func (e *Engine) Teardown(id int64) Response { return e.onLive(opTeardown, id, &e.instr.teardowns) }

// Reroute computes a fresh pair for a live connection on the current
// snapshot and atomically swaps it in at commit (make-before-break: the old
// paths are released and the new ones reserved inside one epoch; on a lost
// race the old paths are restored and the reroute retried).
func (e *Engine) Reroute(id int64) Response { return e.onLive(opReroute, id, &e.instr.reroutes) }

// onLive runs a teardown or reroute of live connection id; count is the op's
// request counter.
func (e *Engine) onLive(kind opKind, id int64, count *metrics.Counter) Response {
	t0 := time.Now()
	if !e.enter() {
		return rejectResponse(id, opNames[kind], ReasonClosed, "")
	}
	defer e.inflight.Done()
	count.Inc()

	s, d, ok := e.tab.Endpoints(id)
	if !ok {
		return rejectResponse(id, opNames[kind], ReasonUnknownConn, "")
	}
	o := op{kind: kind, id: id, s: s, d: d, algo: e.cfg.Algorithm, t0: t0}
	return e.finishOp(&o, e.run(&o), t0)
}

// Audit runs the connection table's audit under the commit lock, so it
// observes a state no commit is halfway through. It validates the Eq. 2 load
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
	return e.tab.Audit()
}

// finishOp folds a commit verdict into the engine's instruments and the
// response.
func (e *Engine) finishOp(o *op, cr commitResult, t0 time.Time) Response {
	// Close the attribution ledger: the tail (the op's last stamp → now, i.e.
	// returning the router and returning to this frame) folds into the
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
		Op:       opNames[o.kind],
		Accepted: cr.ok,
		Reason:   cr.reason,
		Epoch:    cr.epoch,
		Retries:  o.retries,
		Req:      o.traceReq,
	}
	switch o.kind {
	case opProvision:
		if cr.ok {
			e.instr.accepted.Inc()
		} else {
			e.instr.blocked.Inc()
		}
	case opReroute:
		if cr.ok {
			e.rerouteOK.Add(1)
		}
	}
	if cr.ok && o.kind != opTeardown {
		resp.Cost = o.cost
		resp.PathLoad = o.pathLoad
		resp.Primary = hopsJSON(o.pair.Primary)
		resp.Backup = hopsJSON(o.pair.Backup)
	}
	e.syncGauges()
	return resp
}

// route runs a provision or a reroute on router r: it routes on the latest
// snapshot and commits, re-routing on a fresh snapshot after each optimistic
// conflict up to the retry budget. A reroute routes with the connection's
// own channels still held (make-before-break); the commit step releases
// them and takes the new pair in one epoch.
//
//wdm:hotpath
func (e *Engine) route(r *core.Router, o *op) commitResult {
	// Stage stamps: t opens the current attempt (router taken on
	// attempt 1, the previous commit verdict on retries); attempt 1 splits
	// into snap/route/commit segments, retries fold whole into the reroute
	// stage.
	t := time.Now()
	o.st.queue = t.Sub(o.t0).Nanoseconds()
	first := true
	for {
		snap := e.store.pin()
		tSnap := time.Now()
		res, ok := r.Route(o.algo, snap.net, o.s, o.d)
		epoch := snap.epoch
		snap.unpin()
		tRoute := time.Now()
		if first {
			o.st.snap = tSnap.Sub(t).Nanoseconds()
			o.st.route = tRoute.Sub(tSnap).Nanoseconds()
			o.st.tier = r.LastTier()
			if id := r.LastTraceID(); id > 0 {
				o.traceReq = id
			}
		}
		if !ok {
			if !first {
				o.st.reroute += tRoute.Sub(t).Nanoseconds()
			}
			o.last = tRoute
			return commitResult{ok: false, reason: ReasonNoRoute, epoch: epoch}
		}
		o.pair.Primary = copyHops(o.pair.Primary, res.Primary)
		o.pair.Backup = copyHops(o.pair.Backup, res.Backup)
		o.cost, o.pathLoad = res.Cost, res.PathLoad
		cr := e.commit(o)
		tCommit := time.Now()
		if first {
			o.st.commit = tCommit.Sub(tRoute).Nanoseconds()
		} else {
			o.st.reroute += tCommit.Sub(t).Nanoseconds()
		}
		o.last = tCommit
		if cr.conflict {
			if o.retries < e.cfg.maxRetries() {
				o.retries++
				e.instr.retries.Inc()
				first = false
				t = tCommit
				continue
			}
		}
		return cr
	}
}

// teardown commits the release of a connection; the commit step finds its
// paths in the connection table.
func (e *Engine) teardown(o *op) commitResult {
	t := time.Now()
	o.st.queue = t.Sub(o.t0).Nanoseconds()
	cr := e.commit(o)
	o.last = time.Now()
	o.st.commit = o.last.Sub(t).Nanoseconds()
	return cr
}

// commit is the commit step: under the commit lock it applies o to the
// connection table, the only writer of the authoritative network,
// publishes the next snapshot if o changed the state, and
// journals the decision. A reservation that fails is a conflict (o was
// routed on a stale snapshot) and is never applied partially.
func (e *Engine) commit(o *op) commitResult {
	e.commitMu.Lock()
	defer e.commitMu.Unlock()
	logged := o.pair // what the journal records: the routed pair, or the released one
	var err error
	switch o.kind {
	case opProvision:
		_, err = e.tab.Admit(o.id, o.s, o.d, o.pair)
	case opTeardown:
		var c *conns.Conn[struct{}]
		if c, err = e.tab.Teardown(o.id); err == nil {
			logged = c.Pair
		}
	case opReroute:
		// The pair was routed for the endpoints the ID carried when the op
		// started; if the connection was since torn down and the ID
		// re-provisioned elsewhere, it is not the connection this op
		// rerouted. A lost race restores the old paths; route retries on
		// the fresh snapshot.
		if c, ok := e.tab.Get(o.id); ok && (c.Src != o.s || c.Dst != o.d) {
			err = conns.ErrUnknown
		} else {
			_, err = e.tab.Reroute(o.id, o.pair, nil)
		}
	}
	cr := commitResult{epoch: e.store.epoch()}
	switch err {
	case nil:
		cr.ok = true
		cr.epoch = e.store.publish()
		e.instr.epochs.Inc()
		e.instr.epoch.Set(float64(cr.epoch))
	case conns.ErrConflict:
		// The counter behind /status, /metrics and the per-window conflicts
		// rate, charged to the contended links too.
		cr.conflict, cr.reason = true, ReasonConflict
		e.instr.conflicts.Inc()
		e.noteContention(o)
	case conns.ErrDuplicate:
		cr.reason = ReasonDuplicateID
	default: // conns.ErrUnknown
		cr.reason = ReasonUnknownConn
	}
	e.journal.record(o, cr, logged)
	return cr
}

// LiveConnections returns the number of currently established connections.
func (e *Engine) LiveConnections() int { return e.tab.Len() }

// LiveIDs returns the IDs of all live connections, ascending — the drain
// hook for soak drivers and tests.
func (e *Engine) LiveIDs() []int64 { return e.tab.IDs(nil) }

// Snapshot returns the current epoch and its frozen network. The returned
// network is immutable and shared — read only. A caller holding the pointer
// is pinned to that epoch: the snapshot is marked kept, so later commits
// never recycle it and never mutate it.
func (e *Engine) Snapshot() (uint64, *wdm.Network) {
	s := e.store.pin()
	s.kept.Store(true)
	s.unpin()
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
	Routers      int     `json:"routers"`
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
}

// Status reports the daemon's aggregate state from the latest snapshot,
// pinned while it reads it; it never touches the authoritative network or
// takes a lock a request holds.
func (e *Engine) Status() Stats {
	snap := e.store.pin()
	defer snap.unpin()
	st := Stats{
		Epoch:        snap.epoch,
		StateVersion: snap.net.StateVersion(),
		Nodes:        e.nodes,
		Links:        snap.net.Links(),
		W:            e.w,
		Routers:      cap(e.routers),
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
