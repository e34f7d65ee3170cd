package core

import (
	"testing"
	"time"

	"repro/internal/auxgraph"
	"repro/internal/disjoint"
	"repro/internal/metrics"
	"repro/internal/topo"
)

// enableAll turns instrumentation on for the whole §3.3 pipeline and returns
// a restore function for the default-off state.
func enableAll(r *metrics.Registry) func() {
	EnableMetrics(r)
	auxgraph.EnableMetrics(r)
	disjoint.EnableMetrics(r)
	return func() {
		EnableMetrics(nil)
		auxgraph.EnableMetrics(nil)
		disjoint.EnableMetrics(nil)
	}
}

func TestMetricsCoverRoutingPipeline(t *testing.T) {
	r := metrics.NewRegistry()
	defer enableAll(r)()

	net := topo.NSFNET(topo.Config{W: 4})
	if _, ok := NewRouter(nil).ApproxMinCost(net, 0, 9); !ok {
		t.Fatal("ApproxMinCost failed")
	}
	if _, ok := NewRouter(nil).MinLoad(net, 2, 11); !ok {
		t.Fatal("MinLoad failed")
	}
	if _, ok := NewRouter(nil).MinLoadCost(net, 3, 7); !ok {
		t.Fatal("MinLoadCost failed")
	}

	if n := r.Counter("core_route_calls_total", "").Value(); n != 3 {
		t.Fatalf("route calls = %d, want 3", n)
	}
	if n := r.Counter("core_route_found_total", "").Value(); n != 3 {
		t.Fatalf("route found = %d, want 3", n)
	}
	for _, name := range []string{
		"auxgraph_builds_total",
		"auxgraph_reweights_total",
		"disjoint_suurballe_calls_total",
		"disjoint_dijkstra_relaxations_total",
		"disjoint_heap_ops_total",
	} {
		if r.Counter(name, "").Value() == 0 {
			t.Fatalf("%s not incremented", name)
		}
	}
	for _, name := range []string{
		"auxgraph_build_seconds",
		"auxgraph_reweight_seconds",
		"disjoint_suurballe_seconds",
		"core_phase_refine_seconds",
		"core_phase_mincog_seconds",
		"core_mincog_iterations",
		"core_refine_improvement_ratio",
	} {
		if r.Histogram(name, "", nil).Count() == 0 {
			t.Fatalf("%s has no observations", name)
		}
	}
	// Lemma 2: refined cost never exceeds the first-fit cost, so every ratio
	// observation — and hence the mean — is ≤ 1. (Quantile would only give
	// the enclosing bucket's upper bound.)
	if m := r.Histogram("core_refine_improvement_ratio", "", nil).Mean(); m > 1+1e-9 {
		t.Fatalf("refine ratio mean = %g, want ≤ 1", m)
	}
}

func TestMetricsDefaultOff(t *testing.T) {
	// With no EnableMetrics call (or after disabling), routing must work and
	// leave no trace anywhere — the instruments are nil.
	enableAll(nil)()
	net := topo.NSFNET(topo.Config{W: 4})
	if _, ok := NewRouter(nil).ApproxMinCost(net, 0, 9); !ok {
		t.Fatal("ApproxMinCost failed with metrics off")
	}
}

// BenchmarkInstrumentationOverhead quantifies the cost of a live registry on
// the §3.3 hot path. It interleaves batches of ApproxMinCost with nil and
// live instruments inside one run — so slow machine drift cancels out — and
// reports the live/nil per-op time ratio as the "overhead-ratio" metric.
// The acceptance bar is a ratio below 1.05 (<5% slowdown).
func BenchmarkInstrumentationOverhead(b *testing.B) {
	net := topo.NSFNET(topo.Config{W: 8})
	reg := metrics.NewRegistry()
	defer enableAll(nil)()

	const batch = 50
	var elapsed [2]time.Duration // [0]=nil, [1]=live
	var ops [2]int
	for i := 0; i < b.N; {
		for phase := 0; phase < 2 && i < b.N; phase++ {
			if phase == 0 {
				enableAll(nil)
			} else {
				enableAll(reg)
			}
			start := time.Now()
			k := 0
			for ; k < batch && i < b.N; k++ {
				if _, ok := NewRouter(nil).ApproxMinCost(net, i%14, (i+7)%14); !ok {
					b.Fatal("route failed")
				}
				i++
			}
			elapsed[phase] += time.Since(start)
			ops[phase] += k
		}
	}
	if ops[0] > 0 && ops[1] > 0 {
		perOpNil := float64(elapsed[0].Nanoseconds()) / float64(ops[0])
		perOpLive := float64(elapsed[1].Nanoseconds()) / float64(ops[1])
		b.ReportMetric(perOpLive/perOpNil, "overhead-ratio")
	}
}
