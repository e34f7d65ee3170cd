package repro

import (
	"testing"

	"repro/internal/bench"
)

// One testing.B entry per experiment in DESIGN.md's index. Each iteration
// regenerates the experiment's table at reduced (Quick) scale so the bench
// suite finishes in minutes; `go run ./cmd/wdmbench` produces the
// full-scale tables recorded in EXPERIMENTS.md.

func runExperiment(b *testing.B, id string) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tb, err := bench.Run(id, bench.Options{Quick: true, Seeds: 2})
		if err != nil {
			b.Fatal(err)
		}
		if len(tb.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

// BenchmarkF1AuxGraphConstruction regenerates Figure 1's residual→auxiliary
// construction inventory.
func BenchmarkF1AuxGraphConstruction(b *testing.B) { runExperiment(b, "F1") }

// BenchmarkE1ApproxRatio regenerates the Theorem 2 approximation-ratio
// measurement (approx vs exact optimum).
func BenchmarkE1ApproxRatio(b *testing.B) { runExperiment(b, "E1") }

// BenchmarkE2Scaling regenerates the Theorem 1 running-time scaling table.
func BenchmarkE2Scaling(b *testing.B) { runExperiment(b, "E2") }

// BenchmarkE3LoadRatio regenerates the Theorem 3 load-ratio measurement.
func BenchmarkE3LoadRatio(b *testing.B) { runExperiment(b, "E3") }

// BenchmarkE4Reconfig regenerates the §4 reconfiguration-count comparison.
func BenchmarkE4Reconfig(b *testing.B) { runExperiment(b, "E4") }

// BenchmarkE5Restoration regenerates the active-vs-passive restoration
// comparison.
func BenchmarkE5Restoration(b *testing.B) { runExperiment(b, "E5") }

// BenchmarkE6Refinement regenerates the Lemma 2 refinement measurement.
func BenchmarkE6Refinement(b *testing.B) { runExperiment(b, "E6") }

// BenchmarkE7Baseline regenerates the Suurballe-vs-two-step baseline table.
func BenchmarkE7Baseline(b *testing.B) { runExperiment(b, "E7") }

// BenchmarkE8WeightAblation regenerates the §4.1 exponential-base ablation.
func BenchmarkE8WeightAblation(b *testing.B) { runExperiment(b, "E8") }

// BenchmarkE9ILP regenerates the §3.1 ILP validation table.
func BenchmarkE9ILP(b *testing.B) { runExperiment(b, "E9") }

// BenchmarkE10Blocking regenerates the blocking-vs-load series.
func BenchmarkE10Blocking(b *testing.B) { runExperiment(b, "E10") }

// Micro-benchmarks of the public routing entry points on NSFNET.

func BenchmarkRouteApproxMinCostNSFNET(b *testing.B) {
	net := NSFNET(TopoConfig{W: 8})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := ApproxMinCost(net, i%14, (i+7)%14, nil); !ok {
			b.Fatal("routing failed")
		}
	}
}

func BenchmarkRouteMinLoadCostNSFNET(b *testing.B) {
	net := NSFNET(TopoConfig{W: 8})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := MinLoadCost(net, i%14, (i+7)%14, nil); !ok {
			b.Fatal("routing failed")
		}
	}
}

// BenchmarkE11Protection regenerates the edge- vs node-disjoint protection
// comparison (extension).
func BenchmarkE11Protection(b *testing.B) { runExperiment(b, "E11") }

// BenchmarkE12Provisioning regenerates the static-provisioning ablation
// (extension).
func BenchmarkE12Provisioning(b *testing.B) { runExperiment(b, "E12") }

// BenchmarkE13ConversionGain regenerates the wavelength-conversion gain
// comparison (extension).
func BenchmarkE13ConversionGain(b *testing.B) { runExperiment(b, "E13") }

// BenchmarkE14Alternate regenerates the adaptive vs fixed-alternate routing
// comparison (extension).
func BenchmarkE14Alternate(b *testing.B) { runExperiment(b, "E14") }

// BenchmarkE18TrafficSensitivity regenerates the traffic-model sensitivity
// table (extension).
func BenchmarkE18TrafficSensitivity(b *testing.B) { runExperiment(b, "E18") }

// BenchmarkE19ReconfigGain regenerates the reconfiguration-gain comparison
// (extension).
func BenchmarkE19ReconfigGain(b *testing.B) { runExperiment(b, "E19") }
