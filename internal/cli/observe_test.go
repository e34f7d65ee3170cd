package cli

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/netsim"
	"repro/internal/topo"
	"repro/internal/workload"
)

func TestVersionNonEmpty(t *testing.T) {
	v := Version()
	if v == "" {
		t.Fatal("empty version")
	}
	// Module path is baked in by the toolchain under `go test`.
	if !strings.Contains(v, "repro") {
		t.Fatalf("version %q lacks module path", v)
	}
}

func TestEnableAllMetricsCoversEngine(t *testing.T) {
	reg := EnableAllMetrics()
	defer netsim.EnableMetrics(nil)

	net := topo.NSFNET(topo.Config{W: 4})
	sim := netsim.New(net, netsim.Config{Algorithm: netsim.MinCost, Restoration: netsim.Active, Seed: 1})
	sim.Run(workload.Poisson(workload.PoissonConfig{
		Nodes: 14, ArrivalRate: 10, MeanHolding: 1, Count: 50, Seed: 1,
	}))

	names := map[string]bool{}
	for _, s := range reg.Snapshot() {
		names[s.Name] = true
		// The routing phases are recorded once, in each request's trace.
		for _, pkg := range []string{"core_", "disjoint_", "auxgraph_"} {
			if strings.HasPrefix(s.Name, pkg) {
				t.Errorf("routing-phase series %s registered", s.Name)
			}
		}
	}
	if !names["netsim_route_seconds"] {
		t.Fatalf("metric netsim_route_seconds not registered (have %v)", names)
	}
}

func TestWriteSummaryRoundTrip(t *testing.T) {
	reg := EnableAllMetrics()
	defer netsim.EnableMetrics(nil)

	net := topo.NSFNET(topo.Config{W: 4})
	sim := netsim.New(net, netsim.Config{Algorithm: netsim.MinCost, Restoration: netsim.Active, Seed: 1})
	m := sim.Run(workload.Poisson(workload.PoissonConfig{
		Nodes: 14, ArrivalRate: 10, MeanHolding: 1, Count: 40, Seed: 2,
	}))

	path := filepath.Join(t.TempDir(), "summary.json")
	cfg := map[string]any{"topo": "nsfnet", "w": 4}
	if err := WriteSummary(path, cfg, SummarizeSim(m), reg); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got RunSummary
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatalf("summary not valid JSON: %v", err)
	}
	if got.Version == "" {
		t.Fatal("summary missing version")
	}
	stats, ok := got.Stats.(map[string]any)
	if !ok {
		t.Fatalf("stats shape: %T", got.Stats)
	}
	if int(stats["offered"].(float64)) != m.Offered {
		t.Fatalf("offered = %v, want %d", stats["offered"], m.Offered)
	}
	if len(got.Metrics) == 0 {
		t.Fatal("summary missing metrics snapshot")
	}
}
