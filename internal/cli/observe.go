package cli

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/debug"

	"repro/internal/metrics"
	"repro/internal/netsim"
)

// EnableAllMetrics creates a registry and makes every simulator built
// afterwards publish its netsim_* instruments on it. Call once at process
// start when any observability flag is set. The routing phases (reweight,
// Suurballe, refinement, MinCog) have no aggregate series: each request's
// trace records them (package obs).
func EnableAllMetrics() *metrics.Registry {
	r := metrics.NewRegistry()
	netsim.EnableMetrics(r)
	return r
}

// Version renders the module path and VCS revision baked into the binary by
// the Go toolchain (runtime/debug.ReadBuildInfo).
func Version() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "repro (no build info)"
	}
	rev, modified := "", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			modified = s.Value == "true"
		}
	}
	if len(rev) > 12 {
		rev = rev[:12]
	}
	if rev == "" {
		rev = "devel"
	}
	if modified {
		rev += "+dirty"
	}
	return fmt.Sprintf("%s %s (%s, rev %s)", bi.Main.Path, bi.Main.Version, bi.GoVersion, rev)
}

// VersionFlag registers the shared -version flag on the default flag set.
// Call HandleVersion with its value right after flag.Parse.
func VersionFlag() *bool {
	return flag.Bool("version", false, "print version information and exit")
}

// HandleVersion prints the version and exits when show is set.
func HandleVersion(show bool) {
	if show {
		fmt.Println(Version())
		os.Exit(0)
	}
}

// SimStats is the JSON-friendly projection of a netsim run's counters,
// embedded in the end-of-run summary so benchmark trajectories can be
// diffed across commits by machine.
type SimStats struct {
	Offered      int     `json:"offered"`
	Accepted     int     `json:"accepted"`
	Blocked      int     `json:"blocked"`
	BlockingProb float64 `json:"blocking_prob"`
	CostMean     float64 `json:"cost_mean"`
	CostMax      float64 `json:"cost_max"`
	HopsMean     float64 `json:"hops_mean"`
	MeanLoad     float64 `json:"mean_load"`
	MaxLoad      float64 `json:"max_load"`
	Horizon      float64 `json:"horizon"`

	Reconfigs     int `json:"reconfigs,omitempty"`
	ReroutedConns int `json:"rerouted_conns,omitempty"`

	FailureEvents    int     `json:"failure_events,omitempty"`
	AffectedConns    int     `json:"affected_conns,omitempty"`
	Recovered        int     `json:"recovered,omitempty"`
	RecoveryFailed   int     `json:"recovery_failed,omitempty"`
	BackupLost       int     `json:"backup_lost,omitempty"`
	AvailabilityMean float64 `json:"availability_mean,omitempty"`
}

// SummarizeSim projects the simulator metrics into SimStats.
func SummarizeSim(m *netsim.Metrics) SimStats {
	return SimStats{
		Offered:          m.Offered,
		Accepted:         m.Accepted,
		Blocked:          m.Blocked,
		BlockingProb:     m.BlockingProbability(),
		CostMean:         m.Cost.Mean(),
		CostMax:          m.Cost.Max(),
		HopsMean:         m.Hops.Mean(),
		MeanLoad:         m.MeanLoad(),
		MaxLoad:          m.MaxNetworkLoad,
		Horizon:          m.Horizon,
		Reconfigs:        m.Reconfigs,
		ReroutedConns:    m.ReroutedConns,
		FailureEvents:    m.FailureEvents,
		AffectedConns:    m.AffectedConns,
		Recovered:        m.Recovered,
		RecoveryFailed:   m.RecoveryFailed,
		BackupLost:       m.BackupLost,
		AvailabilityMean: m.Availability.Mean(),
	}
}

// RunSummary is the structured end-of-run document emitted by -summary-out:
// the binary version, the run configuration, the simulator statistics, and a
// snapshot of every live metric.
type RunSummary struct {
	Version string                   `json:"version"`
	Config  any                      `json:"config"`
	Stats   any                      `json:"stats"`
	Metrics []metrics.MetricSnapshot `json:"metrics,omitempty"`
}

func writeSummaryTo(w io.Writer, cfg, simStats any, r *metrics.Registry) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(RunSummary{
		Version: Version(),
		Config:  cfg,
		Stats:   simStats,
		Metrics: r.Snapshot(),
	})
}

// WriteSummary writes a RunSummary as indented JSON to path. r may be nil
// (the metrics section is then omitted).
func WriteSummary(path string, cfg, simStats any, r *metrics.Registry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = writeSummaryTo(f, cfg, simStats, r)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
