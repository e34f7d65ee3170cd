// Package netsim is an event-driven simulator for the paper's dynamic
// traffic model (§2): connection requests arrive as a Poisson stream, are
// routed one by one (established immediately or dropped), and depart after
// exponential holding times. It adds the two failure-handling disciplines of
// §1 — the *activate* approach (a backup semilightpath is reserved with the
// primary and switched in instantly on a link failure) and the *passive*
// approach (only the primary is established; restoration is attempted after
// the failure, and may fail for lack of resources) — plus the
// reconfiguration accounting that motivates §4: whenever the network load ρ
// crosses a threshold, a reconfiguration event reroutes the connections on
// the most loaded link.
package netsim

import (
	"cmp"
	"math"
	"math/rand"
	"slices"

	"repro/internal/conns"
	"repro/internal/core"
	"repro/internal/lightpath"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/timeseries"
	"repro/internal/wdm"
	"repro/internal/workload"
)

// The routing disciplines for arrivals (Config.Algorithm).
const (
	MinCost     = core.MinCost
	MinLoad     = core.MinLoad
	MinLoadCost = core.MinLoadCost
	TwoStep     = core.TwoStep
)

// Restoration selects the failure-handling discipline.
type Restoration int

const (
	// Active reserves an edge-disjoint backup with every primary and
	// switches over instantly on failure.
	Active Restoration = iota
	// Passive establishes only the primary and re-routes after a failure if
	// resources permit.
	Passive
)

func (r Restoration) String() string {
	if r == Passive {
		return "passive"
	}
	return "active"
}

// Config parameterises a simulation run.
type Config struct {
	Algorithm   core.Algorithm
	Restoration Restoration
	Opts        *core.Options

	// RouteFunc, when non-nil, overrides Algorithm for arrivals — the hook
	// for disciplines the simulator does not build itself, such as E14's
	// fixed-alternate table (bench.AlternateTable.Route) or the repository
	// benchmark's timed router wrapper. It receives the simulator's private
	// network clone.
	RouteFunc func(net *wdm.Network, s, t int) (*core.Result, bool)

	// FailureRate is the Poisson rate of single-link failure events
	// (0 disables failures).
	FailureRate float64
	// FailureLinks, when non-empty, makes failure events target these links
	// in round-robin order instead of uniformly random up links —
	// deterministic failure scenarios for tests and what-if studies.
	FailureLinks []int
	// RepairTime is how long a failed link stays down (default 10).
	RepairTime float64
	// Seed drives failure-injection randomness.
	Seed int64

	// ReconfigThreshold triggers a reconfiguration when the network load ρ
	// reaches it (0 disables reconfiguration accounting).
	ReconfigThreshold float64
	// ReconfigCooldown is the minimum time between reconfigurations
	// (default 1).
	ReconfigCooldown float64

	// WarmupRequests excludes the first K arrivals from the offered/
	// accepted/blocked counters and the cost/load streams (standard
	// transient-removal methodology); the requests are still routed and
	// occupy capacity.
	WarmupRequests int

	// Tracer, when non-nil, is the run's event log. Its flight recorder
	// receives a request-scoped trace for every routed arrival (and
	// reconfiguration reroute) and one trace per simulator event, of kind
	// sim.<event> (sim.arrival, sim.depart, sim.failure, sim.reconfig, …)
	// with sim_time, conn, link and route_req attributes. route_req is the
	// request ID of the routing trace that placed the connection's pair, so
	// the events join to their routing traces within one dump.
	Tracer *obs.Tracer

	// Window, when positive, collects windowed time-series over windows of
	// this many sim-time units (0 disables telemetry): per-window
	// route-latency quantiles, blocking probability, reroute and
	// reconfiguration rates, and network-state probes (link load ρ,
	// first-fit fragmentation, active lightpaths) sampled at each window
	// seal. Telemetry observes every arrival, including warm-up — the
	// transient is exactly what a curve is for. See Sim.Collector and
	// Sim.NetState.
	Window float64

	// Reprotect, under Active restoration, re-establishes a fresh backup
	// after a switchover or a degraded backup, so connections do not stay
	// unprotected until departure (a variant the paper's §1 survey calls
	// out as reducing vulnerability to subsequent failures).
	Reprotect bool
}

// Metrics aggregates a run.
type Metrics struct {
	Offered  int
	Accepted int
	Blocked  int

	Cost     stats.Stream // Eq. 1 cost sum of accepted pairs
	PathLoad stats.Stream // per-request (U+1)/N load contribution
	Hops     stats.Stream // primary-path hop count

	// Failure accounting.
	FailureEvents  int
	AffectedConns  int
	Recovered      int
	RecoveryFailed int
	BackupLost     int
	// RecoveryWork counts links newly signalled during recovery (0 per
	// switchover for active restoration; new-path length for passive) — the
	// recovery-delay proxy of E5.
	RecoveryWork stats.Stream
	// Availability is the fraction of each finite-holding connection's
	// requested duration actually served (1.0 unless the connection was
	// dropped by an unrecovered failure).
	Availability stats.Stream

	// Re-protection accounting (Reprotect only).
	ReprotectOK     int
	ReprotectFailed int

	// Reconfiguration accounting.
	Reconfigs      int
	ReroutedConns  int
	MaxNetworkLoad float64
	// LoadIntegral is ∫ρ dt; MeanLoad = LoadIntegral / horizon.
	LoadIntegral float64
	Horizon      float64
}

// BlockingProbability returns Blocked/Offered.
func (m *Metrics) BlockingProbability() float64 {
	if m.Offered == 0 {
		return 0
	}
	return float64(m.Blocked) / float64(m.Offered)
}

// MeanLoad returns the time-averaged network load.
func (m *Metrics) MeanLoad() float64 {
	if m.Horizon == 0 {
		return 0
	}
	return m.LoadIntegral / m.Horizon
}

// connMeta is the simulator's own data on a live connection, carried in its
// connection-table record.
type connMeta struct {
	req     int64 // obs request ID of the trace that placed its pair (-1 when untraced)
	arrived float64
	holding float64 // +Inf for permanent connections
}

type eventKind int

const (
	evArrival eventKind = iota
	evDeparture
	evFailure
	evRepair
)

type event struct {
	kind eventKind
	time float64
	seq  uint64 // FIFO tie-break for equal times
	ref  int    // evArrival: index into the request slice; evDeparture: connection ID; evRepair: link ID
}

// eventQueue is a slice-backed binary min-heap ordered by (time, seq). It
// holds the scheduled events (departures, failures, repairs); arrivals are
// streamed from the request slice (see arrivalStream) and never enter it, so the
// heap stays as small as the live connection count. Events are stored by
// value in a single reusable backing array, so steady-state push/pop
// allocates nothing.
type eventQueue []event

func (q eventQueue) less(i, j int) bool { return q.lessThan(i, q[j]) }

// lessThan reports whether q[i] precedes e in (time, seq) order.
func (q eventQueue) lessThan(i int, e event) bool {
	if q[i].time != e.time {
		return q[i].time < e.time
	}
	return q[i].seq < e.seq
}

func (q *eventQueue) push(e event) {
	//wdmlint:ignore hotalloc event-heap growth to peak size; amortizes to zero
	*q = append(*q, e)
	h := *q
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func (q *eventQueue) pop() event {
	h := *q
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	*q = h[:n]
	h = h[:n]
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && h.less(l, small) {
			small = l
		}
		if r < n && h.less(r, small) {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	return top
}

// arrivalStream streams a run's request slice in arrival order: by time, and by
// slice index among equal times. Request i carries sequence number seq0+i,
// the number it would get if every arrival were pushed onto the event heap
// in slice order before the run, so merging the stream with the heap by
// (time, seq) reproduces that order exactly.
type arrivalStream struct {
	reqs  []workload.Request
	order []int // arrival order when reqs is not sorted by time; nil: slice order
	next  int   // arrivals delivered so far
	seq0  uint64
}

// peek returns the next arrival as an event, or false when the stream is
// exhausted.
func (a *arrivalStream) peek() (event, bool) {
	if a.next == len(a.reqs) {
		return event{}, false
	}
	i := a.next
	if a.order != nil {
		i = a.order[i]
	}
	return event{kind: evArrival, time: a.reqs[i].Arrival, seq: a.seq0 + uint64(i), ref: i}, true
}

// arrivalOrder returns the indices of reqs stably sorted by arrival time.
//
//wdm:coldpath only request slices given out of time order are sorted, once per run; generated workloads arrive sorted
func arrivalOrder(reqs []workload.Request) []int {
	order := make([]int, len(reqs))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(reqs[a].Arrival, reqs[b].Arrival) })
	return order
}

// Sim is a single simulation instance. Create with New, drive with Run.
type Sim struct {
	tab    *conns.Table[connMeta] // the network and its live connections
	cfg    Config
	rng    *rand.Rand
	router *core.Router // reused across every arrival and reconfiguration

	q   eventQueue
	seq uint64 // next event sequence number

	lastReconfig float64
	arrivals     int  // total arrivals processed (warm-up accounting)
	failIdx      int  // round-robin cursor into cfg.FailureLinks
	overTh       bool // ρ was ≥ threshold at the last check (crossing detector)
	lastT        float64
	m            Metrics
	instr        instruments // the sim's live signals (/metrics, telemetry)
	up           []int       // scratch for the random failure target

	col *timeseries.Collector // windowed telemetry (nil: Config.Window is 0)
	net *timeseries.NetProbe  // seal-time network state behind NetState

	// defaultRoute routes arrivals with cfg.Algorithm when the config
	// supplies no RouteFunc; reconfigPair and restorePair are the reroute
	// steps of reconfiguration and passive restoration. All three are built
	// once in New so no event allocates a fresh closure.
	defaultRoute func(net *wdm.Network, a, b int) (*core.Result, bool)
	reconfigPair conns.Step[connMeta]
	restorePair  conns.Step[connMeta]

	// afterEvent, when non-nil, runs after every processed event (a test
	// hook for auditing the connection table mid-run).
	afterEvent func()
}

// New returns a simulator over a private clone of the network.
func New(net *wdm.Network, cfg Config) *Sim {
	if cfg.RepairTime == 0 {
		cfg.RepairTime = 10
	}
	if cfg.ReconfigCooldown == 0 {
		cfg.ReconfigCooldown = 1
	}
	// The connection table copies every routed pair when it admits or
	// reroutes it, so the private router can safely hand out arena-backed
	// results that the next routing call overwrites.
	var ropts core.Options
	if cfg.Opts != nil {
		ropts = *cfg.Opts
	}
	ropts.ReuseResult = true
	router := core.NewRouter(&ropts)
	router.SetTracer(cfg.Tracer)
	s := &Sim{
		tab:          conns.New[connMeta](net.Clone()),
		cfg:          cfg,
		rng:          rand.New(rand.NewSource(cfg.Seed)),
		router:       router,
		lastReconfig: math.Inf(-1),
	}
	s.defaultRoute = func(net *wdm.Network, a, b int) (*core.Result, bool) {
		return s.router.Route(s.cfg.Algorithm, net, a, b)
	}
	s.reconfigPair = func(c *conns.Conn[connMeta]) (conns.Pair, bool) {
		res, ok := s.router.MinLoad(s.tab.Network(), c.Src, c.Dst)
		if !ok {
			return conns.Pair{}, false
		}
		return res.Pair(), true
	}
	s.restorePair = func(c *conns.Conn[connMeta]) (conns.Pair, bool) {
		p, _, ok := lightpath.Optimal(s.tab.Network(), c.Src, c.Dst, nil)
		if !ok {
			return conns.Pair{}, false
		}
		return conns.Pair{Primary: p.Hops}, true
	}
	if cfg.Window > 0 || published != nil {
		s.instr.routeTime = metrics.NewTimer()
		s.instr.restoreTime = metrics.NewTimer()
	}
	s.instr.publish(published)
	s.buildTelemetry(cfg.Window)
	return s
}

// Network exposes the simulator's network (for inspection in tests and
// examples; mutating it mid-run is undefined).
func (s *Sim) Network() *wdm.Network { return s.tab.Network() }

func (s *Sim) push(e event) {
	e.seq = s.seq
	s.seq++
	s.q.push(e)
}

// event opens the flight-recorder trace of one simulator event: kind is
// sim.<event>, src/dst the connection's endpoints (−1 for link and network
// events), and the sim time plus whichever of the connection, the link and
// the routing trace that placed the connection's pair (route_req) apply
// become attributes; −1 marks one that does not. Returns nil when the sim
// has no tracer. The caller adds any event-specific attribute and finishes
// the trace.
//
//wdm:coldpath event traces are recorded only when a diagnostic tracer is attached
func (s *Sim) event(kind string, src, dst int, conn int64, link int, req int64) *obs.Trace {
	ev := s.cfg.Tracer.Start(kind, src, dst)
	if ev == nil {
		return nil
	}
	ev.Float("sim_time", s.lastT)
	if conn >= 0 {
		ev.Int("conn", conn)
	}
	if link >= 0 {
		ev.Int("link", int64(link))
	}
	if req >= 0 {
		ev.Int("route_req", req)
	}
	return ev
}

// connEvent records a finished event trace about live connection c.
func (s *Sim) connEvent(kind string, c *conns.Conn[connMeta], link int, status string) {
	s.event(kind, c.Src, c.Dst, c.ID, link, c.Meta.req).Finish(status)
}

// Run processes the request stream to completion (all arrivals, departures,
// failures and repairs) and returns the metrics.
//
//wdm:hotpath
func (s *Sim) Run(reqs []workload.Request) *Metrics {
	horizon := 0.0
	sorted := true
	for i, r := range reqs {
		if i > 0 && r.Arrival < reqs[i-1].Arrival {
			sorted = false
		}
		if d := r.Departure(); !math.IsInf(d, 1) && d > horizon {
			horizon = d
		}
		if r.Arrival > horizon {
			horizon = r.Arrival
		}
	}
	arr := arrivalStream{reqs: reqs, seq0: s.seq}
	s.seq += uint64(len(reqs))
	if !sorted {
		arr.order = arrivalOrder(reqs)
	}
	// Pre-schedule failure events over the horizon.
	if s.cfg.FailureRate > 0 && horizon > 0 {
		t := 0.0
		for {
			t += s.rng.ExpFloat64() / s.cfg.FailureRate
			if t >= horizon {
				break
			}
			s.push(event{kind: evFailure, time: t})
		}
	}

	for {
		// The next event is the earlier, by (time, seq), of the next
		// arrival and the heap's top.
		e, ok := arr.peek()
		if len(s.q) > 0 && (!ok || s.q.lessThan(0, e)) {
			e, ok = s.q.pop(), true
		} else if ok {
			arr.next++
		}
		if !ok {
			break
		}
		s.advanceClock(e.time)
		switch e.kind {
		case evArrival:
			s.handleArrival(reqs[e.ref])
		case evDeparture:
			s.handleDeparture(e.ref)
		case evFailure:
			s.handleFailure()
		case evRepair:
			s.handleRepair(e.ref)
		}
		s.maybeReconfigure(e.time)
		if s.afterEvent != nil {
			s.afterEvent()
		}
	}
	s.m.Horizon = s.lastT
	s.col.Seal() // flush the final, partial window
	s.syncArrivalGauges()
	return &s.m
}

// advanceClock integrates ρ over the elapsed interval, seals completed
// telemetry windows, and refreshes the live progress gauges.
func (s *Sim) advanceClock(t float64) {
	// Seal windows that ended strictly before t, so the probe samples the
	// network as of the last event inside each window.
	s.col.Advance(t)
	rho := s.tab.Network().NetworkLoad()
	if rho > s.m.MaxNetworkLoad {
		s.m.MaxNetworkLoad = rho
	}
	if t > s.lastT {
		s.m.LoadIntegral += rho * (t - s.lastT)
		s.lastT = t
	}
	s.instr.networkLoad.Set(rho)
	s.instr.liveConns.Set(float64(s.tab.Len()))
}

// syncArrivalGauges publishes the running offered count and blocking
// probability so a /metrics scrape mid-run reports progress, not just
// end-of-run totals.
func (s *Sim) syncArrivalGauges() {
	s.instr.offered.Set(float64(s.m.Offered))
	s.instr.blockingProb.Set(s.m.BlockingProbability())
	s.instr.liveConns.Set(float64(s.tab.Len()))
}

func (s *Sim) handleArrival(r workload.Request) {
	s.arrivals++
	// Keep the /metrics progress gauges in step with the run counters on
	// every exit path.
	defer s.syncArrivalGauges()
	measured := s.arrivals > s.cfg.WarmupRequests
	if measured {
		s.m.Offered++
	}
	// Route: a protected pair under active restoration, a lone optimal
	// semilightpath under passive restoration.
	var (
		pair      conns.Pair
		cost, ld  float64
		ok        bool
		req       = int64(-1) // obs request ID of the routing trace
		tc        *obs.Trace  // the passive route's trace (nil under Active)
		net       = s.tab.Network()
		rt        = s.instr.routeTime.Start()
		protected = s.cfg.Restoration == Active
	)
	if protected {
		route := s.cfg.RouteFunc
		if route == nil {
			route = s.defaultRoute // built once in New; no per-arrival closure
		}
		var res *core.Result
		if res, ok = route(net, r.Src, r.Dst); ok {
			pair = res.Pair()
			cost, ld = res.Cost, res.PathLoad
		}
		if s.cfg.RouteFunc == nil {
			req = s.router.LastTraceID()
		}
	} else {
		tc = s.cfg.Tracer.Start("passive-optimal", r.Src, r.Dst)
		req = tc.ReqID()
		var p *wdm.Semilightpath
		if p, cost, ok = lightpath.Optimal(net, r.Src, r.Dst, nil); ok {
			pair.Primary = p.Hops
		}
	}
	s.instr.routeTime.Stop(rt)
	// The table refuses a pair whose channels are gone or a duplicate ID;
	// either blocks the arrival like a missing route.
	var c *conns.Conn[connMeta]
	if ok {
		c, _ = s.tab.Admit(int64(r.ID), r.Src, r.Dst, pair)
	}
	ev := s.event("sim.arrival", r.Src, r.Dst, int64(r.ID), -1, req)
	if c == nil {
		if measured {
			s.m.Blocked++
		}
		s.instr.blocked.Inc()
		tc.Finish(obs.StatusBlocked)
		ev.Finish(obs.StatusBlocked)
		return
	}
	c.Meta = connMeta{req: req, arrived: r.Arrival, holding: r.Holding}
	if measured {
		s.m.Accepted++
		s.m.Cost.Add(cost)
		if protected {
			s.m.PathLoad.Add(ld)
		}
		s.m.Hops.Add(float64(len(c.Primary)))
	}
	s.instr.established.Inc()
	tc.Float("cost", cost)
	tc.Int("hops", int64(len(c.Primary)))
	tc.Finish(obs.StatusOK)
	ev.Float("cost", cost)
	ev.Finish(obs.StatusOK)
	if d := r.Departure(); !math.IsInf(d, 1) {
		s.push(event{kind: evDeparture, time: d, ref: r.ID})
	}
}

func (s *Sim) handleDeparture(id int) {
	c, err := s.tab.Teardown(int64(id))
	if err != nil {
		return // dropped earlier by an unrecovered failure
	}
	s.instr.teardowns.Inc()
	s.connEvent("sim.depart", c, -1, obs.StatusOK)
	s.m.Availability.Add(1)
}

// handleFailure picks a random up link, takes it down, and restores the
// affected connections per the configured discipline.
//
//wdm:coldpath failures are rare events, amortized over many arrivals
func (s *Sim) handleFailure() {
	link := -1
	if n := len(s.cfg.FailureLinks); n > 0 {
		for tries := 0; tries < n; tries++ {
			cand := s.cfg.FailureLinks[s.failIdx%n]
			s.failIdx++
			if !s.tab.Down(cand) {
				link = cand
				break
			}
		}
		if link < 0 {
			return
		}
	} else {
		up := s.up[:0]
		for id := 0; id < s.tab.Network().Links(); id++ {
			if !s.tab.Down(id) {
				up = append(up, id)
			}
		}
		s.up = up
		if len(up) == 0 {
			return
		}
		link = up[s.rng.Intn(len(up))]
	}
	s.m.FailureEvents++
	s.instr.failures.Inc()
	s.event("sim.failure", -1, -1, -1, link, -1).Finish(obs.StatusOK)
	affected := s.tab.Fail(link)
	s.push(event{kind: evRepair, time: s.lastT + s.cfg.RepairTime, ref: link})

	// Restore affected connections (the table lists them in ID order).
	for _, id := range affected {
		c, _ := s.tab.Get(id)
		if conns.Crosses(c.Primary, link) {
			s.m.AffectedConns++
			s.restore(c, link)
			continue
		}
		// Backup degraded: release it; the connection keeps running
		// unprotected (or re-protected when configured).
		s.m.BackupLost++
		_ = s.tab.DropBackup(id) // live: Fail just listed it
		s.reprotect(c)
	}
}

// reprotect tries to reserve a fresh backup, edge-disjoint from the current
// primary, for a connection that lost its protection.
func (s *Sim) reprotect(c *conns.Conn[connMeta]) {
	if !s.cfg.Reprotect || len(c.Backup) > 0 {
		return
	}
	used := make(map[int]bool, len(c.Primary))
	for _, h := range c.Primary {
		used[h.Link] = true
	}
	p, _, ok := lightpath.Optimal(s.tab.Network(), c.Src, c.Dst, &lightpath.Options{
		AllowedLinks: func(id int) bool { return !used[id] },
	})
	if !ok || s.tab.Reprotect(c.ID, p.Hops) != nil {
		s.m.ReprotectFailed++
		return
	}
	s.m.ReprotectOK++
	s.connEvent("sim.reprotect", c, -1, obs.StatusOK)
}

// restore recovers a connection whose primary crossed the failed link.
func (s *Sim) restore(c *conns.Conn[connMeta], failedLink int) {
	defer s.instr.restoreTime.Stop(s.instr.restoreTime.Start())
	if len(c.Backup) > 0 {
		// Activate approach: instant switchover to the pre-reserved backup,
		// which is edge-disjoint from the failed primary. It may itself
		// cross a link downed by an earlier overlapping failure.
		if s.tab.Switchover(c.ID) != nil {
			s.drop(c.ID)
			return
		}
		s.m.Recovered++
		s.instr.restored.Inc()
		s.m.RecoveryWork.Add(0)
		s.connEvent("sim.switchover", c, failedLink, obs.StatusOK)
		s.reprotect(c)
		return
	}
	// Passive approach: compute and signal a fresh route now.
	if _, err := s.tab.Reroute(c.ID, conns.Pair{}, s.restorePair); err != nil {
		s.drop(c.ID)
		return
	}
	s.m.Recovered++
	s.instr.restored.Inc()
	s.m.RecoveryWork.Add(float64(len(c.Primary)))
	s.rerouted(c, failedLink, "passive-restore")
}

// drop tears down a connection a failure left unrecoverable and charges the
// unserved part of its holding time to availability.
func (s *Sim) drop(id int64) {
	c, _ := s.tab.Teardown(id) // live: the caller just restored it
	s.m.RecoveryFailed++
	s.instr.dropped.Inc()
	if h := c.Meta.holding; !math.IsInf(h, 1) && h > 0 {
		served := (s.lastT - c.Meta.arrived) / h
		if served > 1 {
			served = 1
		}
		if served < 0 {
			served = 0
		}
		s.m.Availability.Add(served)
	}
	s.connEvent("sim.drop", c, -1, obs.StatusBlocked)
}

func (s *Sim) handleRepair(link int) {
	s.event("sim.repair", -1, -1, -1, link, -1).Finish(obs.StatusOK)
	s.tab.Repair(link)
}

// maybeReconfigure counts and performs a reconfiguration when ρ crosses the
// threshold from below: the connections riding the most loaded link are
// rerouted with the load-minimising algorithm. This is the §4 accounting —
// load-aware routing keeps ρ below the threshold longer, so it crosses (and
// reconfigures) less often.
//
//wdm:coldpath reconfiguration is cooldown-gated and amortized over many arrivals
func (s *Sim) maybeReconfigure(t float64) {
	th := s.cfg.ReconfigThreshold
	if th <= 0 {
		return
	}
	net := s.tab.Network()
	rho := net.NetworkLoad()
	if rho < th {
		s.overTh = false
		return
	}
	if s.overTh {
		return // this excursion above the threshold was already handled
	}
	if t-s.lastReconfig < s.cfg.ReconfigCooldown {
		return // keep the crossing pending until the cooldown expires
	}
	s.overTh = true
	s.lastReconfig = t
	s.m.Reconfigs++
	s.instr.reconfigs.Inc()
	ev := s.event("sim.reconfig", -1, -1, -1, -1, -1)
	ev.Float("rho", rho)
	ev.Finish(obs.StatusOK)
	// Most loaded link.
	worst, rho := -1, -1.0
	for id := 0; id < net.Links(); id++ {
		if s.tab.Down(id) {
			continue
		}
		if r := net.Link(id).Load(); r > rho {
			rho = r
			worst = id
		}
	}
	if worst < 0 {
		return
	}
	// A reroute that finds no pair, or whose pair does not fit, leaves the
	// connection on its old paths.
	for _, id := range s.tab.Crossing(worst) {
		c, err := s.tab.Reroute(id, conns.Pair{}, s.reconfigPair)
		if err != nil {
			continue
		}
		c.Meta.req = s.router.LastTraceID() // the connection now rides this trace's pair
		s.m.ReroutedConns++
		s.rerouted(c, worst, "reconfig")
	}
}

// rerouted counts connection c moved onto a new route off link, for cause
// "passive-restore" or "reconfig", and records its event.
func (s *Sim) rerouted(c *conns.Conn[connMeta], link int, cause string) {
	s.instr.reroutes.Inc()
	ev := s.event("sim.reroute", c.Src, c.Dst, c.ID, link, c.Meta.req)
	ev.Str("cause", cause)
	ev.Finish(obs.StatusOK)
}

// LiveConnections returns the number of currently established connections.
func (s *Sim) LiveConnections() int { return s.tab.Len() }
