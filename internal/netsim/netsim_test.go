package netsim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/topo"
	"repro/internal/wdm"
	"repro/internal/workload"
)

func nsf(w int) *wdm.Network { return topo.NSFNET(topo.Config{W: w}) }

func poisson(n, count int, erlang float64, seed int64) []workload.Request {
	return workload.Poisson(workload.PoissonConfig{
		Nodes: n, ArrivalRate: erlang, MeanHolding: 1, Count: count, Seed: seed,
	})
}

func TestRunNoFailuresConservesWavelengths(t *testing.T) {
	net := nsf(8)
	total := net.TotalAvailable()
	sim := New(net, Config{Algorithm: MinCost, Restoration: Active, Seed: 1})
	reqs := poisson(14, 300, 20, 2)
	m := sim.Run(reqs)
	if m.Offered != 300 || m.Accepted+m.Blocked != 300 {
		t.Fatalf("accounting broken: %+v", m)
	}
	// All holding times finite: every connection departs, so the network
	// must return to the fully idle state.
	if sim.LiveConnections() != 0 {
		t.Fatalf("%d connections leaked", sim.LiveConnections())
	}
	if sim.Network().TotalAvailable() != total {
		t.Fatal("wavelengths leaked")
	}
	if m.Horizon <= 0 {
		t.Fatal("horizon not recorded")
	}
	if m.Accepted > 0 && m.Cost.N() != m.Accepted {
		t.Fatal("cost samples != accepted")
	}
}

func TestOriginalNetworkUntouched(t *testing.T) {
	net := nsf(4)
	sim := New(net, Config{Algorithm: MinCost, Restoration: Active})
	sim.Run(poisson(14, 100, 30, 3))
	if net.NetworkLoad() != 0 {
		t.Fatal("simulator mutated the caller's network")
	}
}

func TestBlockingIncreasesWithLoad(t *testing.T) {
	light := New(nsf(4), Config{Algorithm: MinCost, Restoration: Active}).
		Run(poisson(14, 400, 5, 7))
	heavy := New(nsf(4), Config{Algorithm: MinCost, Restoration: Active}).
		Run(poisson(14, 400, 60, 7))
	if light.BlockingProbability() > heavy.BlockingProbability() {
		t.Fatalf("blocking: light %g > heavy %g",
			light.BlockingProbability(), heavy.BlockingProbability())
	}
	if heavy.BlockingProbability() == 0 {
		t.Fatal("heavy load should block some requests")
	}
}

func TestActiveRestorationRecoversInstantly(t *testing.T) {
	net := nsf(8)
	cfg := Config{
		Algorithm: MinCost, Restoration: Active,
		FailureRate: 0.5, RepairTime: 2, Seed: 5,
	}
	m := New(net, cfg).Run(poisson(14, 400, 15, 11))
	if m.FailureEvents == 0 {
		t.Fatal("no failures injected")
	}
	if m.AffectedConns == 0 {
		t.Skip("no connection happened to cross a failed link (seed-dependent)")
	}
	if m.Recovered+m.RecoveryFailed != m.AffectedConns {
		t.Fatalf("recovery accounting: %+v", m)
	}
	// Active switchover signals zero new links.
	if m.RecoveryWork.N() > 0 && m.RecoveryWork.Max() != 0 {
		t.Fatalf("active recovery work = %g, want 0", m.RecoveryWork.Max())
	}
}

func TestPassiveRestorationPaysSignalling(t *testing.T) {
	net := nsf(8)
	cfg := Config{
		Algorithm: MinCost, Restoration: Passive,
		FailureRate: 0.5, RepairTime: 2, Seed: 5,
	}
	m := New(net, cfg).Run(poisson(14, 400, 15, 11))
	if m.FailureEvents == 0 {
		t.Fatal("no failures injected")
	}
	if m.Recovered > 0 && m.RecoveryWork.Mean() == 0 {
		t.Fatal("passive recovery should signal new links")
	}
}

func TestPassiveAcceptsMoreUnderPressure(t *testing.T) {
	// Without failures, passive reserves one path per request instead of
	// two, so under capacity pressure it blocks less.
	reqs := poisson(14, 500, 60, 11)
	passive := New(nsf(4), Config{Algorithm: MinCost, Restoration: Passive}).Run(reqs)
	active := New(nsf(4), Config{Algorithm: MinCost, Restoration: Active}).Run(reqs)
	if passive.Accepted < active.Accepted {
		t.Fatalf("passive accepted %d < active %d", passive.Accepted, active.Accepted)
	}
}

func TestActiveBeatsPassiveOnRecoveryRate(t *testing.T) {
	// Under heavy load with failures, passive restoration should fail more
	// often (resource shortage at recovery time) — the §1 claim.
	var activeFailRate, passiveFailRate float64
	runs := 5
	for seed := int64(0); seed < int64(runs); seed++ {
		reqs := poisson(14, 500, 40, 100+seed)
		cfgA := Config{Algorithm: MinCost, Restoration: Active,
			FailureRate: 1, RepairTime: 3, Seed: 200 + seed}
		cfgP := cfgA
		cfgP.Restoration = Passive
		ma := New(nsf(4), cfgA).Run(reqs)
		mp := New(nsf(4), cfgP).Run(reqs)
		if ma.AffectedConns > 0 {
			activeFailRate += float64(ma.RecoveryFailed) / float64(ma.AffectedConns)
		}
		if mp.AffectedConns > 0 {
			passiveFailRate += float64(mp.RecoveryFailed) / float64(mp.AffectedConns)
		}
	}
	if activeFailRate > passiveFailRate {
		t.Fatalf("active recovery-failure rate %g > passive %g",
			activeFailRate, passiveFailRate)
	}
}

func TestWavelengthConservationWithFailures(t *testing.T) {
	net := nsf(4)
	total := net.TotalAvailable()
	cfg := Config{
		Algorithm: MinLoadCost, Restoration: Active,
		FailureRate: 1, RepairTime: 1.5, Seed: 9,
		ReconfigThreshold: 0.5, ReconfigCooldown: 0.5,
	}
	sim := New(net, cfg)
	m := sim.Run(poisson(14, 600, 30, 13))
	if sim.LiveConnections() != 0 {
		t.Fatalf("%d connections leaked", sim.LiveConnections())
	}
	if got := sim.Network().TotalAvailable(); got != total {
		t.Fatalf("wavelength leak: %d != %d (failures=%d reconfigs=%d)",
			got, total, m.FailureEvents, m.Reconfigs)
	}
}

func TestReconfigurationAccounting(t *testing.T) {
	// Small ring under heavy load crosses any threshold quickly.
	net := topo.Ring(6, topo.Config{W: 4})
	cfg := Config{
		Algorithm: MinCost, Restoration: Active,
		ReconfigThreshold: 0.4, ReconfigCooldown: 0.1,
	}
	m := New(net, cfg).Run(poisson(6, 300, 20, 17))
	if m.Reconfigs == 0 {
		t.Fatal("no reconfigurations triggered under heavy load")
	}
	if m.MaxNetworkLoad < cfg.ReconfigThreshold {
		t.Fatal("max load below threshold yet reconfigs fired")
	}
	// Disabled accounting stays at zero.
	m2 := New(topo.Ring(6, topo.Config{W: 4}), Config{
		Algorithm: MinCost, Restoration: Active,
	}).Run(poisson(6, 300, 20, 17))
	if m2.Reconfigs != 0 {
		t.Fatal("reconfigs counted while disabled")
	}
}

func TestLoadAwareReducesReconfigurations(t *testing.T) {
	// The paper's headline claim (E4 in miniature): MinLoadCost keeps ρ
	// lower, so it triggers fewer reconfigurations than cost-only routing.
	sumCost, sumAware := 0, 0
	for seed := int64(0); seed < 5; seed++ {
		reqs := poisson(14, 500, 10, 300+seed)
		base := Config{Restoration: Active, ReconfigThreshold: 0.6, ReconfigCooldown: 0.2}
		cfgC := base
		cfgC.Algorithm = MinCost
		cfgA := base
		cfgA.Algorithm = MinLoadCost
		sumCost += New(nsf(8), cfgC).Run(reqs).Reconfigs
		sumAware += New(nsf(8), cfgA).Run(reqs).Reconfigs
	}
	if sumAware > sumCost {
		t.Fatalf("load-aware reconfigs %d > cost-only %d", sumAware, sumCost)
	}
}

func TestMetricsHelpers(t *testing.T) {
	m := &Metrics{}
	if m.BlockingProbability() != 0 || m.MeanLoad() != 0 {
		t.Fatal("zero-value metrics should report 0")
	}
	m.Offered, m.Blocked = 4, 1
	if m.BlockingProbability() != 0.25 {
		t.Fatal("blocking probability wrong")
	}
	m.LoadIntegral, m.Horizon = 5, 10
	if m.MeanLoad() != 0.5 {
		t.Fatal("mean load wrong")
	}
}

func TestAlgorithmAndRestorationStrings(t *testing.T) {
	for a, want := range map[core.Algorithm]string{
		MinCost: "min-cost", MinLoad: "min-load",
		MinLoadCost: "min-load-cost", TwoStep: "two-step",
		core.Algorithm(9): "Algorithm(9)",
	} {
		if a.String() != want {
			t.Errorf("Algorithm.String = %q, want %q", a.String(), want)
		}
	}
	if Active.String() != "active" || Passive.String() != "passive" {
		t.Fatal("Restoration strings wrong")
	}
}

func TestAllAlgorithmsRunClean(t *testing.T) {
	for _, algo := range []core.Algorithm{MinCost, MinLoad, MinLoadCost, TwoStep} {
		net := nsf(4)
		total := net.TotalAvailable()
		sim := New(net, Config{Algorithm: algo, Restoration: Active})
		m := sim.Run(poisson(14, 150, 15, 23))
		if m.Accepted == 0 {
			t.Errorf("%v accepted nothing", algo)
		}
		if sim.Network().TotalAvailable() != total {
			t.Errorf("%v leaked wavelengths", algo)
		}
	}
}

func TestInfiniteHoldingConnectionsPersist(t *testing.T) {
	net := nsf(8)
	sim := New(net, Config{Algorithm: MinCost, Restoration: Active})
	// Ten simultaneous requests that never depart.
	rng := rand.New(rand.NewSource(31))
	reqs := make([]workload.Request, 10)
	for i := range reqs {
		src, dst := rng.Intn(14), rng.Intn(13)
		if dst >= src {
			dst++
		}
		reqs[i] = workload.Request{ID: i, Src: src, Dst: dst, Holding: math.Inf(1)}
	}
	m := sim.Run(reqs)
	if m.Accepted == 0 {
		t.Fatal("batch requests all blocked")
	}
	if sim.LiveConnections() != m.Accepted {
		t.Fatalf("live = %d, accepted = %d", sim.LiveConnections(), m.Accepted)
	}
	if sim.Network().NetworkLoad() == 0 {
		t.Fatal("permanent connections should hold capacity")
	}
}

func TestReprotectRestoresBackup(t *testing.T) {
	cfg := Config{
		Algorithm: MinCost, Restoration: Active,
		FailureRate: 1, RepairTime: 2, Seed: 5,
		Reprotect: true,
	}
	net := nsf(8)
	total := net.TotalAvailable()
	sim := New(net, cfg)
	m := sim.Run(poisson(14, 500, 15, 11))
	if m.FailureEvents == 0 {
		t.Fatal("no failures injected")
	}
	if m.ReprotectOK == 0 {
		t.Skip("no reprotection opportunity at this seed")
	}
	if sim.Network().TotalAvailable() != total {
		t.Fatal("reprotect leaked wavelengths")
	}
	// Without reprotection the counters stay zero.
	cfg.Reprotect = false
	m2 := New(nsf(8), cfg).Run(poisson(14, 500, 15, 11))
	if m2.ReprotectOK != 0 || m2.ReprotectFailed != 0 {
		t.Fatal("reprotect counters moved while disabled")
	}
}

func TestReprotectImprovesSurvival(t *testing.T) {
	// With frequent failures, reprotected connections survive later hits
	// more often: recovery-failure count should not increase.
	var lost, lostRe int
	for seed := int64(0); seed < 4; seed++ {
		reqs := poisson(14, 400, 15, 700+seed)
		base := Config{Algorithm: MinCost, Restoration: Active,
			FailureRate: 2, RepairTime: 5, Seed: 900 + seed}
		withRe := base
		withRe.Reprotect = true
		lost += New(nsf(8), base).Run(reqs).RecoveryFailed
		lostRe += New(nsf(8), withRe).Run(reqs).RecoveryFailed
	}
	if lostRe > lost {
		t.Fatalf("reprotect lost more connections: %d > %d", lostRe, lost)
	}
}

func TestRouteFuncOverride(t *testing.T) {
	net := nsf(4)
	router := core.NewRouter(nil)
	calls := 0
	sim := New(net, Config{
		Algorithm:   MinCost,
		Restoration: Active,
		RouteFunc: func(n *wdm.Network, s, d int) (*core.Result, bool) {
			calls++
			return router.ApproxMinCostNodeDisjoint(n, s, d)
		},
	})
	m := sim.Run(poisson(14, 100, 10, 41))
	if calls != m.Offered {
		t.Fatalf("RouteFunc called %d times, offered %d", calls, m.Offered)
	}
	if m.Accepted == 0 {
		t.Fatal("RouteFunc routing accepted nothing")
	}
	if sim.Network().TotalAvailable() != nsf(4).TotalAvailable() {
		t.Fatal("wavelengths leaked under RouteFunc")
	}
}

func TestTraceRecordsLifecycle(t *testing.T) {
	tr := eventLog()
	cfg := Config{
		Algorithm: MinCost, Restoration: Active,
		FailureRate: 1, RepairTime: 2, Seed: 5,
		ReconfigThreshold: 0.5, ReconfigCooldown: 0.2,
		Tracer: tr,
	}
	m := New(nsf(4), cfg).Run(poisson(14, 300, 25, 11))
	evs := simEvents(t, tr)
	n := census(evs)
	for _, c := range []struct {
		key  string
		want int
	}{
		{"sim.arrival/ok", m.Accepted},
		{"sim.arrival/blocked", m.Blocked},
		{"sim.failure/ok", m.FailureEvents},
		{"sim.reconfig/ok", m.Reconfigs},
		{"sim.drop/blocked", m.RecoveryFailed},
	} {
		if n[c.key] != c.want {
			t.Fatalf("%s events %d, want %d", c.key, n[c.key], c.want)
		}
	}
	if n["sim.switchover/ok"]+n["sim.reroute/ok"] < m.Recovered {
		t.Fatal("recovery events undercounted")
	}
	// Sim-time stamps are non-decreasing in recording order.
	prev := -1.0
	for _, ev := range evs {
		st, ok := attr(ev, "sim_time")
		if !ok || st.F < prev-1e-9 {
			t.Fatalf("%s sim_time %v after %g", ev.Kind, st, prev)
		}
		prev = st.F
	}
}

func TestDeterministicFailureTargets(t *testing.T) {
	net := nsf(8)
	tr := eventLog()
	cfg := Config{
		Algorithm: MinCost, Restoration: Active,
		FailureRate: 0.5, RepairTime: 100, Seed: 1,
		FailureLinks: []int{3, 7},
		Tracer:       tr,
	}
	New(net, cfg).Run(poisson(14, 200, 10, 3))
	failures := 0
	for _, ev := range simEvents(t, tr) {
		if ev.Kind != "sim.failure" {
			continue
		}
		failures++
		if l, _ := attr(ev, "link"); l.I != 3 && l.I != 7 {
			t.Fatalf("failure hit untargeted link %d", l.I)
		}
	}
	if failures == 0 {
		t.Fatal("no failures fired")
	}
}

// Forces the reconfiguration reroute-failure path (rereserve): a connection
// loses its backup to a targeted failure; the subsequent reconfiguration
// tears it down, MinLoad cannot find a disjoint pair (one corridor is
// quarantined), and the old primary must be re-reserved intact.
func TestReconfigRerouteFailureRestoresOldPaths(t *testing.T) {
	// Two corridors 0→1→3 and 0→2→3, W=2. The connection holds one λ per
	// link (load 0.5 < threshold 0.8). The targeted failure quarantines
	// link 2 (load 1 ≥ 0.8) — an upward crossing — and the triggered
	// reconfiguration picks the most loaded *up* link (a primary link),
	// tears the connection, and cannot re-route it (corridor 2 is down),
	// so the old paths must be re-reserved.
	mk := func() *wdm.Network {
		net := wdm.NewNetwork(4, 2)
		net.AddUniformLink(0, 1, 1)   // 0: cheap corridor → primary
		net.AddUniformLink(1, 3, 1)   // 1
		net.AddUniformLink(0, 2, 1.5) // 2: dear corridor → backup
		net.AddUniformLink(2, 3, 1.5) // 3
		net.SetAllConverters(wdm.NewFullConverter(2, 0))
		return net
	}
	net := mk()
	tr := eventLog()
	cfg := Config{
		Algorithm: MinCost, Restoration: Active,
		FailureRate: 5, RepairTime: 1000, Seed: 1,
		FailureLinks:      []int{2}, // kill the 0→2 corridor's first link
		ReconfigThreshold: 0.8, ReconfigCooldown: 0.01,
		Tracer: tr,
	}
	sim := New(net, cfg)
	// One permanent connection 0→3 occupying both corridors.
	reqs := []workload.Request{{ID: 0, Src: 0, Dst: 3, Arrival: 0.001, Holding: math.Inf(1)}}
	// Plus a dummy late arrival so the event loop runs past the failure.
	reqs = append(reqs, workload.Request{ID: 1, Src: 0, Dst: 3, Arrival: 50, Holding: 1})
	m := sim.Run(reqs)
	if m.Accepted < 1 {
		t.Fatal("connection not established")
	}
	if census(simEvents(t, tr))["sim.failure/"+obs.StatusOK] == 0 {
		t.Fatal("failure never fired")
	}
	if m.BackupLost == 0 {
		t.Fatal("backup was not degraded by the targeted failure")
	}
	// The connection must still be alive on its original primary: exactly
	// one live connection, primary corridor channels in use.
	if sim.LiveConnections() != 1 {
		t.Fatalf("live = %d, want 1", sim.LiveConnections())
	}
	// Reconfig fired (load stayed ≥ threshold) but could not reroute.
	if m.Reconfigs == 0 {
		t.Fatal("reconfiguration never fired")
	}
	if m.ReroutedConns != 0 {
		t.Fatalf("reroute should have failed, yet %d rerouted", m.ReroutedConns)
	}
}

func TestWarmupExcludesTransient(t *testing.T) {
	reqs := poisson(14, 200, 20, 51)
	warm := New(nsf(8), Config{Algorithm: MinCost, Restoration: Active, WarmupRequests: 80}).Run(reqs)
	if warm.Offered != 120 {
		t.Fatalf("offered = %d, want 120", warm.Offered)
	}
	if warm.Accepted+warm.Blocked != 120 {
		t.Fatal("warm accounting inconsistent")
	}
	if warm.Cost.N() != warm.Accepted {
		t.Fatal("cost stream counted warm-up requests")
	}
	// Warm-up requests still occupy the network: the measured blocking under
	// warm-up is at least the cold-start blocking on the same stream.
	cold := New(nsf(8), Config{Algorithm: MinCost, Restoration: Active}).Run(reqs)
	if cold.Offered != 200 {
		t.Fatal("cold offered wrong")
	}
	if warm.BlockingProbability()+1e-9 < cold.BlockingProbability()*0.5 {
		// Weak sanity only: the warm measurement reflects steady state.
		t.Logf("warm=%g cold=%g", warm.BlockingProbability(), cold.BlockingProbability())
	}
}

func TestAvailabilityAccounting(t *testing.T) {
	// Without failures every departing connection is fully served.
	m := New(nsf(8), Config{Algorithm: MinCost, Restoration: Active}).
		Run(poisson(14, 200, 10, 61))
	if m.Availability.N() != m.Accepted {
		t.Fatalf("availability samples %d != accepted %d", m.Availability.N(), m.Accepted)
	}
	if m.Availability.Mean() != 1 {
		t.Fatalf("availability = %g, want 1", m.Availability.Mean())
	}
	// Under heavy failures with passive restoration some connections drop
	// early, pulling mean availability below 1.
	mp := New(nsf(4), Config{
		Algorithm: MinCost, Restoration: Passive,
		FailureRate: 3, RepairTime: 5, Seed: 3,
	}).Run(poisson(14, 500, 40, 62))
	if mp.RecoveryFailed > 0 && mp.Availability.Mean() >= 1 {
		t.Fatalf("drops occurred yet availability = %g", mp.Availability.Mean())
	}
	if mp.Availability.Min() < 0 || mp.Availability.Max() > 1 {
		t.Fatal("availability outside [0,1]")
	}
}

// Property: for arbitrary seeds/configs the simulator conserves wavelengths
// and keeps its counters consistent.
func TestQuickSimulatorConservation(t *testing.T) {
	f := func(seed int64, erlRaw, failRaw uint8) bool {
		erl := 5 + float64(erlRaw%40)
		failRate := float64(failRaw%3) * 0.7
		net := nsf(4)
		total := net.TotalAvailable()
		sim := New(net, Config{
			Algorithm:         core.Algorithm(int(seed) & 3),
			Restoration:       Restoration(int(seed>>2) & 1),
			FailureRate:       failRate,
			RepairTime:        1.5,
			Seed:              seed,
			ReconfigThreshold: 0.5,
			ReconfigCooldown:  0.3,
			Reprotect:         seed%2 == 0,
		})
		m := sim.Run(poisson(14, 150, erl, seed+1))
		if m.Accepted+m.Blocked != m.Offered {
			return false
		}
		if m.Recovered+m.RecoveryFailed != m.AffectedConns {
			return false
		}
		if sim.LiveConnections() != 0 {
			return false
		}
		return sim.Network().TotalAvailable() == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
