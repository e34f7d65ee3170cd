package serve

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/conns"
	"repro/internal/topo"
	"repro/internal/wdm"
)

// nsf returns the standard 14-node NSFNET test network.
func nsf(w int) *wdm.Network {
	return topo.NSFNET(topo.Config{W: w})
}

// ring4 returns a 4-node bidirectional ring: the smallest network with two
// edge-disjoint paths between opposite nodes (0→2 via links 0,2 and via
// links 7,5), and little enough capacity that concurrent admissions collide.
func ring4(w int) *wdm.Network {
	return topo.Ring(4, topo.Config{W: w})
}

// startEngine builds and starts an engine, failing the test on error and
// closing it at cleanup.
func startEngine(t *testing.T, net *wdm.Network, cfg Config) *Engine {
	t.Helper()
	e := New(net, cfg)
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := e.Close(); err != nil {
			t.Errorf("engine close: %v", err)
		}
	})
	return e
}

// availEqual compares per-link availability sets of two networks.
func availEqual(a, b *wdm.Network) bool {
	if a.Links() != b.Links() {
		return false
	}
	for id := 0; id < a.Links(); id++ {
		as, bs := a.Link(id).Avail().Slice(), b.Link(id).Avail().Slice()
		if len(as) != len(bs) {
			return false
		}
		for i := range as {
			if as[i] != bs[i] {
				return false
			}
		}
	}
	return true
}

// TestConcurrentSmoke is the race-regression gate: 10k mixed requests from
// 16 client goroutines against a live engine, every request answered, then
// a full drain and the oracle audit — capacity conservation included (the
// audit fails if any channel leaks or double-books). Run under -race in CI.
func TestConcurrentSmoke(t *testing.T) {
	net := nsf(8)
	want := net.TotalAvailable()
	e := startEngine(t, net, Config{JournalCap: 200000})
	rep, err := RunSoak(e, LoadConfig{
		Requests:     10000,
		Clients:      16,
		Seed:         1,
		RerouteEvery: 25,
		Drain:        true,
	})
	if err != nil {
		t.Fatalf("soak: %v\n%s", err, rep)
	}
	if !rep.Drained {
		t.Fatal("soak did not drain")
	}
	if rep.Provisions == 0 || rep.Accepted == 0 {
		t.Fatalf("degenerate soak: %s", rep)
	}
	if got := rep.Provisions + rep.Teardowns + rep.Reroutes; got != int64(rep.Requests) {
		t.Fatalf("request accounting: %d provisions + %d teardowns + %d reroutes != %d requests",
			rep.Provisions, rep.Teardowns, rep.Reroutes, rep.Requests)
	}
	if n := e.LiveConnections(); n != 0 {
		t.Fatalf("%d connections survive the drain", n)
	}
	_, snap := e.Snapshot()
	if got := snap.TotalAvailable(); got != want {
		t.Fatalf("capacity not conserved after drain: %d available, want %d", got, want)
	}
}

// TestConflictDetectedAtCommit drives the optimistic-concurrency path
// deterministically: two provisions with byte-identical paths committed
// back to back. The first must reserve, the second must be reported as a
// conflict (routed on a snapshot that no longer holds).
func TestConflictDetectedAtCommit(t *testing.T) {
	e := startEngine(t, ring4(4), Config{})

	mk := func(id int64) *op {
		return &op{kind: opProvision, id: id, s: 0, d: 2, algo: AlgoMinCost,
			pair: conns.Pair{
				Primary: []wdm.Hop{{Link: 0, Wavelength: 0}, {Link: 2, Wavelength: 0}},
				Backup:  []wdm.Hop{{Link: 7, Wavelength: 0}, {Link: 5, Wavelength: 0}}},
			cost: 4}
	}
	cr1, cr2 := e.commit(mk(1)), e.commit(mk(2))
	if !cr1.ok {
		t.Fatalf("first admission rejected: %+v", cr1)
	}
	if cr2.ok || !cr2.conflict {
		t.Fatalf("second identical admission must conflict, got %+v", cr2)
	}
	if err := e.Audit(); err != nil {
		t.Fatalf("audit after conflict: %v", err)
	}
	// The conflicted op must not have half-applied: exactly the four
	// channels of conn 1 are busy.
	_, snap := e.Snapshot()
	busy := ring4(4).TotalAvailable() - snap.TotalAvailable()
	if busy != 4 {
		t.Fatalf("%d channels busy after one admission + one conflict, want 4", busy)
	}
}

// TestRerouteConflictRestoresOldPaths: a reroute whose new pair lost the
// race must leave the connection exactly on its old paths.
func TestRerouteConflictRestoresOldPaths(t *testing.T) {
	e := startEngine(t, ring4(8), Config{MaxRetries: -1})

	if resp := e.Provision(Request{ID: 1, Src: 0, Dst: 2}); !resp.Accepted {
		t.Fatalf("provision blocked: %+v", resp)
	}
	c, ok := e.tab.Get(1)
	if !ok {
		t.Fatal("conn 1 not registered")
	}
	oldPrimary := append([]wdm.Hop(nil), c.Primary...)
	oldBackup := append([]wdm.Hop(nil), c.Backup...)

	// Find a wavelength still free on all four links of the 0→2 pair (W=8 and
	// conn 1 holds only 4 channels, so one exists), then occupy it out of band
	// via a competing provision op — the reroute will target exactly those
	// channels and lose the race deterministically.
	_, snap := e.Snapshot()
	freeLam := -1
	for lam := 0; lam < 8; lam++ {
		if snap.Link(0).HasAvail(lam) && snap.Link(2).HasAvail(lam) &&
			snap.Link(7).HasAvail(lam) && snap.Link(5).HasAvail(lam) {
			freeLam = lam
			break
		}
	}
	if freeLam < 0 {
		t.Fatal("no channel free on all four links to stage the collision")
	}
	onFree := conns.Pair{
		Primary: []wdm.Hop{{Link: 0, Wavelength: freeLam}, {Link: 2, Wavelength: freeLam}},
		Backup:  []wdm.Hop{{Link: 7, Wavelength: freeLam}, {Link: 5, Wavelength: freeLam}}}
	occupy := &op{kind: opProvision, id: 99, s: 0, d: 2, algo: AlgoMinCost, pair: onFree}
	if cr := e.commit(occupy); !cr.ok {
		t.Fatalf("staging provision failed: %+v", cr)
	}
	// Now the reroute targets exactly the channels conn 99 just took.
	o := &op{kind: opReroute, id: 1, s: 0, d: 2, algo: AlgoMinCost, pair: onFree}
	cr := e.commit(o)
	if cr.ok || !cr.conflict {
		t.Fatalf("reroute onto occupied channels must conflict, got %+v", cr)
	}
	c, _ = e.tab.Get(1)
	for i, h := range c.Primary {
		if h != oldPrimary[i] {
			t.Fatalf("primary changed after failed reroute: %v vs %v", c.Primary, oldPrimary)
		}
	}
	for i, h := range c.Backup {
		if h != oldBackup[i] {
			t.Fatalf("backup changed after failed reroute: %v vs %v", c.Backup, oldBackup)
		}
	}
	if err := e.Audit(); err != nil {
		t.Fatalf("audit after reroute conflict: %v", err)
	}
}

// TestHighContentionConflicts hammers a tiny ring from many goroutines so
// optimistic conflicts actually occur end to end, and verifies every one is
// resolved into a legal state (the audit is the arbiter).
func TestHighContentionConflicts(t *testing.T) {
	net := ring4(2)
	want := net.TotalAvailable()
	e := startEngine(t, net, Config{})

	const clients = 8
	const perClient = 150
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			for k := 0; k < perClient; k++ {
				id := int64(client)<<32 | int64(k)
				s, d := client%4, (client+2)%4 // opposite corners: maximum overlap
				if resp := e.Provision(Request{ID: id, Src: s, Dst: d}); resp.Accepted {
					e.Teardown(id)
				}
			}
		}(c)
	}
	wg.Wait()
	if err := e.Audit(); err != nil {
		t.Fatalf("audit after contention: %v", err)
	}
	for _, id := range e.LiveIDs() {
		if resp := e.Teardown(id); !resp.Accepted {
			t.Fatalf("drain teardown %d: %+v", id, resp)
		}
	}
	_, snap := e.Snapshot()
	if got := snap.TotalAvailable(); got != want {
		t.Fatalf("capacity not conserved: %d available, want %d", got, want)
	}
}

// TestStartLaunchesNoWorkers pins the execution model: requests run on
// their callers' goroutines, so with telemetry off Start launches no
// goroutine at all — none per router and no committer — and a served request
// leaves none behind.
func TestStartLaunchesNoWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	e := startEngine(t, nsf(8), Config{})
	if resp := e.Provision(Request{ID: 1, Src: 0, Dst: 9}); !resp.Accepted {
		t.Fatalf("provision blocked: %+v", resp)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines after Start and one request, %d before: the engine runs workers", after, before)
	}
}

// TestOneRouterUnderManyCallers hammers a pool of one router from 16
// goroutines: every caller waits its turn for the router and finishes, and
// the serial history commits to a legal, conserved state.
func TestOneRouterUnderManyCallers(t *testing.T) {
	prev := runtime.GOMAXPROCS(1) // the pool holds GOMAXPROCS routers
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	net := nsf(8)
	want := net.TotalAvailable()
	e := startEngine(t, net, Config{Algorithm: AlgoMinLoadCost})
	if cap(e.routers) != 1 {
		t.Fatalf("pool of %d routers at GOMAXPROCS=1", cap(e.routers))
	}
	const callers, perCaller = 16, 60
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < perCaller; k++ {
				id := int64(c*perCaller + k + 1)
				s := (c + k) % 14
				d := (s + 1 + k%13) % 14
				if e.Provision(Request{ID: id, Src: s, Dst: d}).Accepted {
					if k%3 == 0 {
						e.Reroute(id)
					}
					e.Teardown(id)
				}
			}
		}(c)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatal("callers still waiting for the router after a minute")
	}
	if err := e.Audit(); err != nil {
		t.Fatalf("audit: %v", err)
	}
	st := e.Status()
	if n := e.instr.requestTime.Hist().Count(); n != st.Provisions+st.Teardowns+st.Reroutes || st.Provisions != callers*perCaller {
		t.Fatalf("%d requests timed for %d provisions, %d teardowns, %d reroutes",
			n, st.Provisions, st.Teardowns, st.Reroutes)
	}
	if _, snap := e.Snapshot(); snap.TotalAvailable() != want || e.LiveConnections() != 0 {
		t.Fatalf("capacity not conserved: %d available, want %d; %d live", snap.TotalAvailable(), want, e.LiveConnections())
	}
}

// TestJournalReplayMatchesEngine is the linearizability-style check: after a
// concurrent run, replaying the commit-ordered journal serially on the
// initial network must reproduce the engine's exact final state.
func TestJournalReplayMatchesEngine(t *testing.T) {
	initial := nsf(8)
	e := startEngine(t, initial, Config{JournalCap: 100000})
	if _, err := RunSoak(e, LoadConfig{
		Requests:     4000,
		Clients:      12,
		Seed:         3,
		RerouteEvery: 20,
	}); err != nil {
		t.Fatalf("soak: %v", err)
	}
	entries, truncated := e.Journal()
	if truncated {
		t.Fatal("journal truncated; raise JournalCap")
	}
	if len(entries) == 0 {
		t.Fatal("empty journal")
	}
	replayed, err := Replay(initial, entries)
	if err != nil {
		t.Fatalf("replay diverged: %v", err)
	}
	_, snap := e.Snapshot()
	if !availEqual(replayed, snap) {
		t.Fatal("serial replay of the commit order does not reproduce the engine's final availability")
	}
}

// TestDuplicateIDRejected: a live ID cannot be provisioned twice, whatever
// its endpoints (the commit step holds the authoritative registry).
func TestDuplicateIDRejected(t *testing.T) {
	e := startEngine(t, nsf(8), Config{})
	if resp := e.Provision(Request{ID: 7, Src: 0, Dst: 9}); !resp.Accepted {
		t.Fatalf("first provision blocked: %+v", resp)
	}
	resp := e.Provision(Request{ID: 7, Src: 3, Dst: 11})
	if resp.Accepted || resp.Reason != ReasonDuplicateID {
		t.Fatalf("duplicate accepted or wrong reason: %+v", resp)
	}
}

// TestBadRequestRejected covers the request validation envelope.
func TestBadRequestRejected(t *testing.T) {
	e := startEngine(t, nsf(8), Config{})
	for _, req := range []Request{
		{ID: -1, Src: 0, Dst: 1},
		{ID: 1, Src: 0, Dst: 0},
		{ID: 1, Src: -1, Dst: 1},
		{ID: 1, Src: 0, Dst: 14},
		{ID: 1, Src: 0, Dst: 1, Algo: "astar"},
	} {
		if resp := e.Provision(req); resp.Accepted || resp.Reason != ReasonBadRequest {
			t.Fatalf("%+v: want bad-request rejection, got %+v", req, resp)
		}
	}
	if resp := e.Teardown(42); resp.Accepted || resp.Reason != ReasonUnknownConn {
		t.Fatalf("teardown of unknown conn: %+v", resp)
	}
	if resp := e.Reroute(42); resp.Accepted || resp.Reason != ReasonUnknownConn {
		t.Fatalf("reroute of unknown conn: %+v", resp)
	}
}

// TestClosedEngineRejects: requests after Close answer engine-closed rather
// than hanging or panicking.
func TestClosedEngineRejects(t *testing.T) {
	e := New(nsf(8), Config{})
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if resp := e.Provision(Request{ID: 1, Src: 0, Dst: 1}); resp.Reason != ReasonClosed {
		t.Fatalf("provision on closed engine: %+v", resp)
	}
	if err := e.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

// TestPerConnectionSerialization: concurrent teardown+reroute storms on the
// same IDs never double-release (the audit and conservation catch it).
func TestPerConnectionSerialization(t *testing.T) {
	net := nsf(16)
	want := net.TotalAvailable()
	e := startEngine(t, net, Config{})
	const conns = 20
	for i := 0; i < conns; i++ {
		if resp := e.Provision(Request{ID: int64(i), Src: i % 14, Dst: (i + 7) % 14}); !resp.Accepted {
			t.Fatalf("setup provision %d blocked: %+v", i, resp)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < conns; i++ {
				switch g % 3 {
				case 0:
					e.Teardown(int64(i))
				case 1:
					e.Reroute(int64(i))
				default:
					e.Provision(Request{ID: int64(100 + g*conns + i), Src: i % 14, Dst: (i + 5) % 14})
				}
			}
		}(g)
	}
	wg.Wait()
	if err := e.Audit(); err != nil {
		t.Fatalf("audit: %v", err)
	}
	for _, id := range e.LiveIDs() {
		if resp := e.Teardown(id); !resp.Accepted {
			t.Fatalf("drain %d: %+v", id, resp)
		}
	}
	_, snap := e.Snapshot()
	if got := snap.TotalAvailable(); got != want {
		t.Fatalf("capacity not conserved: %d, want %d", got, want)
	}
}

// TestSameConnectionRaceReplays races reroute, teardown, reroute and
// re-provision on the same few connection IDs from many goroutines, so ops
// on one connection route at once and only the commit step orders them. A
// re-provision gives the ID new endpoints each round, so a reroute routed
// for an ID's old endpoints must not land on its new connection. Afterwards
// the audit is clean and a serial replay of the commit-ordered journal
// reproduces the engine's final state.
func TestSameConnectionRaceReplays(t *testing.T) {
	initial := nsf(8)
	e := startEngine(t, initial, Config{JournalCap: 100000})
	const ids, workers, rounds = 6, 8, 40
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for id := int64(0); id < ids; id++ {
					switch (g + r) % 4 {
					case 0, 2:
						e.Reroute(id)
					case 1:
						e.Teardown(id)
					default:
						s := (g + r + int(id)) % 14
						e.Provision(Request{ID: id, Src: s, Dst: (s + 1 + r%13) % 14})
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if err := e.Audit(); err != nil {
		t.Fatalf("audit: %v", err)
	}
	st := e.Status()
	if st.RerouteOK == 0 || st.Accepted == 0 {
		t.Fatalf("degenerate race: %d reroutes and %d provisions committed", st.RerouteOK, st.Accepted)
	}
	entries, truncated := e.Journal()
	if truncated {
		t.Fatal("journal truncated; raise JournalCap")
	}
	replayed, err := Replay(initial, entries)
	if err != nil {
		t.Fatalf("replay diverged: %v", err)
	}
	if _, snap := e.Snapshot(); !availEqual(replayed, snap) {
		t.Fatal("serial replay of the commit order does not reproduce the engine's final availability")
	}
}

// TestStatus sanity-checks the /status aggregates.
func TestStatus(t *testing.T) {
	e := startEngine(t, nsf(8), Config{})
	for i := 0; i < 5; i++ {
		e.Provision(Request{ID: int64(i), Src: 0, Dst: 9})
	}
	st := e.Status()
	if st.Routers != runtime.GOMAXPROCS(0) || st.Nodes != 14 || st.W != 8 {
		t.Fatalf("bad static fields: %+v", st)
	}
	if st.Provisions != 5 || st.Accepted+st.Blocked != 5 {
		t.Fatalf("bad counters: %+v", st)
	}
	if st.LiveConns != int(st.Accepted) {
		t.Fatalf("live %d != accepted %d", st.LiveConns, st.Accepted)
	}
	if st.Epoch == 0 {
		t.Fatal("no epoch published after accepted admissions")
	}
}
