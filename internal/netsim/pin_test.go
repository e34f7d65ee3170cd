package netsim

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/stats"
	"repro/internal/workload"
)

// streamPin is the summary of one stats.Stream that a pin compares exactly.
type streamPin struct {
	N              int
	Mean, Min, Max float64
}

func pinStream(s *stats.Stream) streamPin {
	return streamPin{N: s.N(), Mean: s.Mean(), Min: s.Min(), Max: s.Max()}
}

// metricsPin is the complete Metrics of a run, flattened into a comparable
// value: every counter, the summary of every stream, and the load integrals.
type metricsPin struct {
	Offered, Accepted, Blocked                                         int
	FailureEvents, AffectedConns, Recovered, RecoveryFailed            int
	BackupLost, ReprotectOK, ReprotectFailed, Reconfigs, ReroutedConns int
	Cost, PathLoad, Hops, RecoveryWork, Availability                   streamPin
	LoadIntegral, MaxNetworkLoad, Horizon                              float64
}

func pinMetrics(m *Metrics) metricsPin {
	return metricsPin{
		Offered: m.Offered, Accepted: m.Accepted, Blocked: m.Blocked,
		FailureEvents: m.FailureEvents, AffectedConns: m.AffectedConns,
		Recovered: m.Recovered, RecoveryFailed: m.RecoveryFailed,
		BackupLost: m.BackupLost, ReprotectOK: m.ReprotectOK,
		ReprotectFailed: m.ReprotectFailed, Reconfigs: m.Reconfigs,
		ReroutedConns: m.ReroutedConns,
		Cost:          pinStream(&m.Cost), PathLoad: pinStream(&m.PathLoad),
		Hops: pinStream(&m.Hops), RecoveryWork: pinStream(&m.RecoveryWork),
		Availability: pinStream(&m.Availability),
		LoadIntegral: m.LoadIntegral, MaxNetworkLoad: m.MaxNetworkLoad,
		Horizon: m.Horizon,
	}
}

// pinRuns are the seeded NSFNET runs the bit-exactness pin covers: every
// restoration discipline (active, active with re-protection, passive) under
// random and round-robin targeted link failures, with reconfiguration on,
// so arrivals, departures, switchovers, drops, backup loss, re-protection,
// passive restoration and reconfiguration reroutes all contribute.
func pinRuns() []struct {
	name string
	w    int
	erl  float64
	cfg  Config
	want metricsPin
} {
	base := func(r Restoration, reprotect bool, links []int) Config {
		return Config{
			Algorithm: MinCost, Restoration: r, Reprotect: reprotect,
			FailureRate: 1.5, RepairTime: 4, Seed: 11, FailureLinks: links,
			ReconfigThreshold: 0.6, ReconfigCooldown: 0.2,
		}
	}
	targets := []int{3, 7, 12, 20, 31}
	// Light load with short outages keeps ρ crossing the threshold, so the
	// reconfiguration runs reroute hundreds of connections.
	light := func(r Restoration) Config {
		return Config{
			Algorithm: MinCost, Restoration: r, Reprotect: r == Active,
			FailureRate: 0.3, RepairTime: 1, Seed: 11,
			ReconfigThreshold: 0.75, ReconfigCooldown: 0.2,
		}
	}
	return []struct {
		name string
		w    int
		erl  float64
		cfg  Config
		want metricsPin
	}{
		{"active/random", 4, 30, base(Active, false, nil),
			metricsPin{Offered: 1500, Accepted: 695, Blocked: 805, FailureEvents: 94, AffectedConns: 60, Recovered: 56, RecoveryFailed: 4, BackupLost: 102, ReprotectOK: 0, ReprotectFailed: 0, Reconfigs: 1, ReroutedConns: 1, Cost: streamPin{N: 695, Mean: 6.89928057553957, Min: 3, Max: 14.5}, PathLoad: streamPin{N: 695, Mean: 0.9334532374100725, Min: 0.25, Max: 1}, Hops: streamPin{N: 695, Mean: 2.2705035971223015, Min: 1, Max: 6}, RecoveryWork: streamPin{N: 56, Mean: 1.0714285714285716, Min: 0, Max: 6}, Availability: streamPin{N: 695, Mean: 0.9981082557831455, Min: 0.36599809329596145, Max: 1}, LoadIntegral: 59.84436753706697, MaxNetworkLoad: 1, Horizon: 59.88778558342807}},
		{"active/targeted", 4, 30, base(Active, false, targets),
			metricsPin{Offered: 1500, Accepted: 775, Blocked: 725, FailureEvents: 61, AffectedConns: 14, Recovered: 14, RecoveryFailed: 0, BackupLost: 49, ReprotectOK: 0, ReprotectFailed: 0, Reconfigs: 1, ReroutedConns: 1, Cost: streamPin{N: 775, Mean: 6.773548387096772, Min: 3, Max: 14}, PathLoad: streamPin{N: 775, Mean: 0.9390322580645171, Min: 0.25, Max: 1}, Hops: streamPin{N: 775, Mean: 2.2335483870967745, Min: 1, Max: 5}, RecoveryWork: streamPin{N: 14, Mean: 0, Min: 0, Max: 0}, Availability: streamPin{N: 775, Mean: 1, Min: 1, Max: 1}, LoadIntegral: 59.84436753706697, MaxNetworkLoad: 1, Horizon: 59.88778558342807}},
		{"reprotect/random", 4, 30, base(Active, true, nil),
			metricsPin{Offered: 1500, Accepted: 657, Blocked: 843, FailureEvents: 94, AffectedConns: 58, Recovered: 54, RecoveryFailed: 4, BackupLost: 111, ReprotectOK: 68, ReprotectFailed: 91, Reconfigs: 1, ReroutedConns: 1, Cost: streamPin{N: 657, Mean: 6.8455098934551035, Min: 3, Max: 13.5}, PathLoad: streamPin{N: 657, Mean: 0.9311263318112628, Min: 0.25, Max: 1}, Hops: streamPin{N: 657, Mean: 2.258751902587523, Min: 1, Max: 5}, RecoveryWork: streamPin{N: 54, Mean: 0.462962962962963, Min: 0, Max: 5}, Availability: streamPin{N: 657, Mean: 0.9980756602517705, Min: 0.5250225186894165, Max: 1}, LoadIntegral: 59.84436753706697, MaxNetworkLoad: 1, Horizon: 59.88778558342807}},
		{"reprotect/targeted", 4, 30, base(Active, true, targets),
			metricsPin{Offered: 1500, Accepted: 745, Blocked: 755, FailureEvents: 61, AffectedConns: 17, Recovered: 17, RecoveryFailed: 0, BackupLost: 50, ReprotectOK: 35, ReprotectFailed: 32, Reconfigs: 1, ReroutedConns: 1, Cost: streamPin{N: 745, Mean: 6.763087248322153, Min: 3, Max: 13.5}, PathLoad: streamPin{N: 745, Mean: 0.9466442953020135, Min: 0.25, Max: 1}, Hops: streamPin{N: 745, Mean: 2.2362416107382543, Min: 1, Max: 5}, RecoveryWork: streamPin{N: 17, Mean: 0, Min: 0, Max: 0}, Availability: streamPin{N: 745, Mean: 1, Min: 1, Max: 1}, LoadIntegral: 59.84436753706697, MaxNetworkLoad: 1, Horizon: 59.88778558342807}},
		{"passive/random", 4, 30, base(Passive, false, nil),
			metricsPin{Offered: 1500, Accepted: 1294, Blocked: 206, FailureEvents: 94, AffectedConns: 120, Recovered: 77, RecoveryFailed: 43, BackupLost: 0, ReprotectOK: 0, ReprotectFailed: 0, Reconfigs: 1, ReroutedConns: 1, Cost: streamPin{N: 1294, Mean: 2.838871715610511, Min: 1, Max: 11}, PathLoad: streamPin{N: 0, Mean: 0, Min: 0, Max: 0}, Hops: streamPin{N: 1294, Mean: 2.7318392581143707, Min: 1, Max: 10}, RecoveryWork: streamPin{N: 77, Mean: 4.571428571428571, Min: 1, Max: 8}, Availability: streamPin{N: 1294, Mean: 0.9809909667751122, Min: 0.012801548497766923, Max: 1}, LoadIntegral: 59.84436753706697, MaxNetworkLoad: 1, Horizon: 59.88778558342807}},
		{"passive/targeted", 4, 30, base(Passive, false, targets),
			metricsPin{Offered: 1500, Accepted: 1373, Blocked: 127, FailureEvents: 61, AffectedConns: 53, Recovered: 43, RecoveryFailed: 10, BackupLost: 0, ReprotectOK: 0, ReprotectFailed: 0, Reconfigs: 1, ReroutedConns: 1, Cost: streamPin{N: 1373, Mean: 2.753823743627097, Min: 1, Max: 10.5}, PathLoad: streamPin{N: 0, Mean: 0, Min: 0, Max: 0}, Hops: streamPin{N: 1373, Mean: 2.6540422432629303, Min: 1, Max: 10}, RecoveryWork: streamPin{N: 43, Mean: 3.697674418604651, Min: 1, Max: 7}, Availability: streamPin{N: 1373, Mean: 0.9942680914974089, Min: 0.007874509354248126, Max: 1}, LoadIntegral: 59.84436753706697, MaxNetworkLoad: 1, Horizon: 59.88778558342807}},
		{"reconfig/reprotect", 8, 15, light(Active),
			metricsPin{Offered: 1500, Accepted: 1491, Blocked: 9, FailureEvents: 33, AffectedConns: 27, Recovered: 27, RecoveryFailed: 0, BackupLost: 30, ReprotectOK: 52, ReprotectFailed: 5, Reconfigs: 89, ReroutedConns: 503, Cost: streamPin{N: 1491, Mean: 5.800804828973844, Min: 3, Max: 10}, PathLoad: streamPin{N: 1491, Mean: 0.5707578806170364, Min: 0.125, Max: 1}, Hops: streamPin{N: 1491, Mean: 2.190476190476195, Min: 1, Max: 5}, RecoveryWork: streamPin{N: 27, Mean: 0, Min: 0, Max: 0}, Availability: streamPin{N: 1491, Mean: 1, Min: 1, Max: 1}, LoadIntegral: 76.99114220320567, MaxNetworkLoad: 1, Horizon: 108.51992511969347}},
		{"reconfig/passive", 8, 15, light(Passive),
			metricsPin{Offered: 1500, Accepted: 1500, Blocked: 0, FailureEvents: 33, AffectedConns: 26, Recovered: 26, RecoveryFailed: 0, BackupLost: 3, ReprotectOK: 0, ReprotectFailed: 0, Reconfigs: 30, ReroutedConns: 101, Cost: streamPin{N: 1500, Mean: 2.1879999999999997, Min: 1, Max: 4}, PathLoad: streamPin{N: 0, Mean: 0, Min: 0, Max: 0}, Hops: streamPin{N: 1500, Mean: 2.1879999999999997, Min: 1, Max: 4}, RecoveryWork: streamPin{N: 26, Mean: 3.2692307692307696, Min: 0, Max: 4}, Availability: streamPin{N: 1500, Mean: 1, Min: 1, Max: 1}, LoadIntegral: 59.86042933647637, MaxNetworkLoad: 1, Horizon: 108.51992511969347}},
	}
}

// TestSimMetricsPinned pins the complete Metrics of seeded runs bit for bit:
// the simulator is deterministic, so any change to how connections are
// admitted, torn down, switched over, dropped, re-protected or rerouted
// that alters a single decision shows up here. On a mismatch the test
// prints the observed value as a Go literal.
func TestSimMetricsPinned(t *testing.T) {
	for _, run := range pinRuns() {
		t.Run(run.name, func(t *testing.T) {
			m := New(nsf(run.w), run.cfg).Run(poisson(14, 1500, run.erl, 5))
			got := pinMetrics(m)
			if got != run.want {
				t.Fatalf("metrics drifted from the pin:\n got %#v\nwant %#v", got, run.want)
			}
		})
	}
}

// shuffledTies returns a seeded request slice whose arrival order in the
// slice is not time order and whose events tie: arrival and holding times
// are rounded to quarters (exact in binary), so many arrivals share a time
// and many departures and repairs land exactly on an arrival. The run's
// outcome then depends on the simulator's full (time, sequence) event order:
// equal-time arrivals in slice order, then failures, then departures and
// repairs in the order they were scheduled.
func shuffledTies() []workload.Request {
	reqs := poisson(14, 1200, 30, 23)
	for i := range reqs {
		reqs[i].Arrival = math.Round(reqs[i].Arrival*4) / 4
		reqs[i].Holding = math.Max(0.25, math.Round(reqs[i].Holding*4)/4)
	}
	rng := rand.New(rand.NewSource(5))
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	return reqs
}

// TestShuffledTiesPinned pins the complete Metrics of a run over a shuffled
// request slice with equal event times, random failures on, so a change to
// how the simulator orders its events shows up bit for bit.
func TestShuffledTiesPinned(t *testing.T) {
	cfg := Config{
		Algorithm: MinCost, Restoration: Active, Reprotect: true,
		FailureRate: 1, RepairTime: 2, Seed: 3,
		ReconfigThreshold: 0.7, ReconfigCooldown: 0.5,
	}
	want := metricsPin{Offered: 1200, Accepted: 505, Blocked: 695, FailureEvents: 31, AffectedConns: 26, Recovered: 26, RecoveryFailed: 0, BackupLost: 26, ReprotectOK: 35, ReprotectFailed: 17, Reconfigs: 3, ReroutedConns: 8, Cost: streamPin{N: 505, Mean: 6.817821782178218, Min: 3, Max: 15.5}, PathLoad: streamPin{N: 505, Mean: 0.9559405940594059, Min: 0.25, Max: 1}, Hops: streamPin{N: 505, Mean: 2.227722772277227, Min: 1, Max: 6}, RecoveryWork: streamPin{N: 26, Mean: 0, Min: 0, Max: 0}, Availability: streamPin{N: 505, Mean: 1, Min: 1, Max: 1}, LoadIntegral: 43.5949542063263, MaxNetworkLoad: 1, Horizon: 44.99058440045404}
	got := pinMetrics(New(nsf(4), cfg).Run(shuffledTies()))
	if got != want {
		t.Fatalf("metrics drifted from the pin:\n got %#v\nwant %#v", got, want)
	}
}
