package netsim

import (
	"testing"

	"repro/internal/metrics"
)

func TestSimMetricsMatchRunCounters(t *testing.T) {
	r := metrics.NewRegistry()
	EnableMetrics(r)
	defer EnableMetrics(nil)

	sim := New(nsf(4), Config{
		Algorithm:   MinCost,
		Restoration: Active,
		FailureRate: 0.5,
		RepairTime:  2,
		Seed:        5,
	})
	m := sim.Run(poisson(14, 400, 25, 5))

	// No warm-up configured, so the sim counters and the metric counters
	// describe the same population.
	if got := int64(*instrument(t, r, "netsim_established_total").Value); got != int64(m.Accepted) {
		t.Fatalf("established = %d, accepted = %d", got, m.Accepted)
	}
	if got := int64(*instrument(t, r, "netsim_blocked_total").Value); got != int64(m.Blocked) {
		t.Fatalf("blocked = %d, want %d", got, m.Blocked)
	}
	if got := int64(*instrument(t, r, "netsim_failures_total").Value); got != int64(m.FailureEvents) {
		t.Fatalf("failures = %d, want %d", got, m.FailureEvents)
	}
	if got := int64(*instrument(t, r, "netsim_restored_total").Value); got != int64(m.Recovered) {
		t.Fatalf("restored = %d, want %d", got, m.Recovered)
	}
	if got := int64(*instrument(t, r, "netsim_dropped_total").Value); got != int64(m.RecoveryFailed) {
		t.Fatalf("dropped = %d, want %d", got, m.RecoveryFailed)
	}
	// Teardowns: every accepted connection either departed normally or was
	// dropped by an unrecovered failure.
	tear := int64(*instrument(t, r, "netsim_teardown_total").Value)
	if tear+int64(m.RecoveryFailed) != int64(m.Accepted) {
		t.Fatalf("teardowns %d + dropped %d != accepted %d", tear, m.RecoveryFailed, m.Accepted)
	}
	// Routing latency histogram saw every arrival.
	if n := *instrument(t, r, "netsim_route_seconds").Count; n != int64(m.Offered) {
		t.Fatalf("route observations = %d, offered = %d", n, m.Offered)
	}
	if m.Recovered > 0 {
		if n := *instrument(t, r, "netsim_restore_seconds").Count; n == 0 {
			t.Fatal("no restoration latency observations")
		}
	}
}

// instrument returns the snapshot of the instrument r exposes under name.
func instrument(t *testing.T, r *metrics.Registry, name string) metrics.MetricSnapshot {
	t.Helper()
	for _, m := range r.Snapshot() {
		if m.Name == name {
			return m
		}
	}
	t.Fatalf("%s is not published", name)
	return metrics.MetricSnapshot{}
}
