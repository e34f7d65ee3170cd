// wdmsim runs a dynamic-traffic simulation (§2 traffic model) on a named
// topology and prints blocking, cost, load, restoration and reconfiguration
// metrics:
//
//	wdmsim -topo nsfnet -w 8 -erlang 30 -count 2000 -algo min-load-cost
//	wdmsim -topo arpa2 -w 8 -erlang 40 -failures 0.5 -restore passive
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/slo"
	"repro/internal/timeseries"
	"repro/internal/workload"
)

func main() {
	topoName := flag.String("topo", "nsfnet", "topology: nsfnet, arpa2, ring, waxman")
	n := flag.Int("n", 16, "node count for parametric topologies")
	w := flag.Int("w", 8, "wavelengths per fiber")
	erlang := flag.Float64("erlang", 30, "offered load λ/µ (arrival rate with unit mean holding)")
	count := flag.Int("count", 2000, "number of requests")
	seed := flag.Int64("seed", 1, "workload + failure seed")
	algo := flag.String("algo", "min-load-cost", "routing: min-cost, min-load, min-load-cost, two-step")
	restore := flag.String("restore", "active", "restoration: active, passive")
	failures := flag.Float64("failures", 0, "link-failure rate (0 = none)")
	repair := flag.Float64("repair", 5, "link repair time")
	reconfigTh := flag.Float64("reconfig", 0.6, "reconfiguration load threshold (0 = off)")
	traffic := flag.String("traffic", "uniform", "endpoint model: uniform, gravity, diurnal")
	period := flag.Float64("period", 200, "diurnal cycle length in sim-time units (with -traffic diurnal)")
	amp := flag.Float64("amp", 0.8, "diurnal rate swing in [0,1) (with -traffic diurnal)")
	matrixFile := flag.String("matrix", "", "load the traffic matrix from a text file (overrides -traffic)")
	holding := flag.String("holding", "exp", "holding-time distribution: exp, det, pareto")
	metricsOut := flag.String("metrics-out", "", "write a metrics snapshot to this file (.json → JSON, else Prometheus text)")
	summaryOut := flag.String("summary-out", "", "write a structured JSON run summary (config + stats + metrics) to this file")
	serveAddr := flag.String("serve", "", "serve the debug endpoints (/healthz, /metrics, /debug/flight, /debug/explain, /debug/pprof) on this address")
	flightCap := flag.Int("flight", obs.DefaultCapacity, "flight-recorder capacity (last N request and event traces)")
	flightOut := flag.String("flight-out", "", "dump the flight recorder (routing traces and sim.* events) as JSONL to this file at end of run")
	linger := flag.Float64("linger", 0, "keep the -serve endpoints up this many seconds after the run (for probes)")
	candidates := flag.Int("candidates", 0, "candidate fast tier: precompute k route pairs per node pair and try them before exact routing (0 = off)")
	soak := flag.Bool("soak", false, "soak mode: collect windowed telemetry and print the latency/blocking curve")
	sloP99 := flag.Float64("slo-p99", 0, "SLO: p99 routing latency ceiling in seconds, evaluated per telemetry window (0 = off)")
	sloBlocking := flag.Float64("slo-blocking", 0, "SLO: blocking-probability ceiling per telemetry window (0 = off)")
	incidentDir := flag.String("incident-dir", "", "capture incident bundles into this directory on SLO breach")
	window := flag.Float64("window", 5, "telemetry window width in sim-time units")
	timeseriesOut := flag.String("timeseries-out", "", "stream sealed telemetry windows to this file (.csv → CSV, else JSONL)")
	version := cli.VersionFlag()
	flag.Parse()
	cli.HandleVersion(*version)

	// Metrics are published only when an observability flag asks for them:
	// the simulator's netsim_* series.
	var reg *metrics.Registry
	if *metricsOut != "" || *summaryOut != "" || *serveAddr != "" {
		reg = cli.EnableAllMetrics()
	}
	// Request tracing rides behind -serve or -flight-out: every routed
	// request and every simulator event (sim.arrival, sim.failure, …) gets a
	// trace, the last -flight N live in the ring — size it to the run for
	// the full event log. With -flight-out, the first non-OK trace (a
	// blocked request or a dropped connection) dumps the ring immediately,
	// so a crash mid-run still leaves a capture; the end-of-run dump
	// overwrites it with the final state.
	var tracer *obs.Tracer
	if *serveAddr != "" || *flightOut != "" {
		cfg := obs.Config{Capacity: *flightCap}
		if *flightOut != "" {
			path := *flightOut
			cfg.OnFailure = func(fr *obs.FlightRecorder, _ *obs.Trace) {
				if err := fr.DumpFile(path); err != nil {
					fmt.Fprintf(os.Stderr, "warning: first-failure flight dump: %v\n", err)
				}
			}
		}
		tracer = obs.New(cfg)
	}
	// Windowed telemetry rides behind -soak, -timeseries-out or -serve: the
	// simulator cuts sim-time windows of -window units, each carrying routing
	// latency quantiles, blocking, reroute counts and a network-state probe.
	telWindow := 0.0
	if *soak || *timeseriesOut != "" || *serveAddr != "" {
		if !(*window > 0) || math.IsInf(*window, 1) {
			fmt.Fprintf(os.Stderr, "-window must be positive and finite, got %g\n", *window)
			os.Exit(1)
		}
		telWindow = *window
	}
	net, err := cli.BuildTopology(*topoName, *n, *w, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	algorithm, err := core.ParseAlgorithm(*algo)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	restoration, err := cli.ParseRestoration(*restore)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	simCfg := netsim.Config{
		Algorithm:         algorithm,
		Restoration:       restoration,
		FailureRate:       *failures,
		RepairTime:        *repair,
		Seed:              *seed,
		ReconfigThreshold: *reconfigTh,
		ReconfigCooldown:  0.2,
		Tracer:            tracer,
		Window:            telWindow,
	}
	if *candidates > 0 {
		// Build the table up front from the pristine topology — it is
		// state-independent, so this is a one-time setup cost.
		simCfg.Opts = &core.Options{CandidateTable: core.NewCandidateTable(net, *candidates)}
	}
	sim := netsim.New(net, simCfg)
	col := sim.Collector()
	var tsSink timeseries.FileSink
	if *timeseriesOut != "" {
		tsSink, err = timeseries.CreateFile(*timeseriesOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		col.SetSink(tsSink)
	}
	// SLO objectives over the simulator's sim-time windows: same watchdog as
	// wdmd, driven by event sim-time instead of wall time.
	var watchdog *slo.Watchdog
	var capturer *slo.Capturer
	if *sloP99 > 0 || *sloBlocking > 0 {
		if col == nil {
			fmt.Fprintln(os.Stderr, "slo flags need telemetry (-soak, -serve or -timeseries-out)")
			os.Exit(1)
		}
		var objectives []slo.Objective
		if *sloP99 > 0 {
			objectives = append(objectives, slo.Objective{
				Name: "route-p99", Series: netsim.SeriesRouteLatency, Kind: slo.KindP99, Max: *sloP99,
			})
		}
		if *sloBlocking > 0 {
			objectives = append(objectives, slo.Objective{
				Name: "blocking", Series: netsim.SeriesBlocking, Kind: slo.KindRatio, Max: *sloBlocking,
			})
		}
		wd, err := slo.New(objectives...)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		watchdog = wd
		watchdog.EnableMetrics(reg)
		if *incidentDir != "" {
			cap, err := slo.NewCapturer(slo.CaptureConfig{
				Dir:    *incidentDir,
				Flight: tracer.Flight(),
				Series: col,
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			capturer = cap
			watchdog.OnBreach(capturer.HandleBreach)
		}
		watchdog.Bind(col)
	}
	if *serveAddr != "" {
		addr, err := cli.StartDebugServer(*serveAddr, cli.DebugOpts{
			Metrics:   reg,
			Flight:    tracer.Flight(),
			Series:    col,
			NetState:  sim.NetState,
			SLO:       watchdog,
			Incidents: capturer,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "debug endpoints listening on http://%s\n", addr)
	}

	var matrix *workload.Matrix
	switch {
	case *matrixFile != "":
		fh, err := os.Open(*matrixFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		matrix, err = workload.ParseMatrix(fh)
		fh.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if matrix.Nodes() != net.Nodes() {
			fmt.Fprintf(os.Stderr, "traffic matrix is %d×%d but the topology has %d nodes\n",
				matrix.Nodes(), matrix.Nodes(), net.Nodes())
			os.Exit(1)
		}
	case *traffic == "uniform", *traffic == "diurnal":
		// Diurnal shapes the arrival process, not the endpoints: it rides a
		// uniform matrix (or the -matrix file when given).
		matrix = workload.NewUniformMatrix(net.Nodes())
	case *traffic == "gravity":
		// Synthetic populations: every third node is a 3× hub.
		pops := make([]float64, net.Nodes())
		for i := range pops {
			pops[i] = 1
			if i%3 == 0 {
				pops[i] = 3
			}
		}
		matrix = workload.NewGravityMatrix(pops)
	default:
		fmt.Fprintf(os.Stderr, "unknown traffic model %q\n", *traffic)
		os.Exit(1)
	}
	var dist workload.HoldingDist
	switch *holding {
	case "exp":
		dist = workload.HoldingExponential
	case "det":
		dist = workload.HoldingDeterministic
	case "pareto":
		dist = workload.HoldingPareto
	default:
		fmt.Fprintf(os.Stderr, "unknown holding distribution %q\n", *holding)
		os.Exit(1)
	}
	mc := workload.MatrixConfig{
		Matrix: matrix, ArrivalRate: *erlang, MeanHolding: 1,
		Count: *count, Seed: *seed, Holding: dist,
	}
	var reqs []workload.Request
	if *traffic == "diurnal" {
		reqs = workload.DiurnalPoisson(workload.DiurnalConfig{MatrixConfig: mc, Period: *period, Amp: *amp})
	} else {
		reqs = workload.MatrixPoisson(mc)
	}
	m := sim.Run(reqs)

	// An incomplete telemetry export is data loss, not a warning: exit
	// non-zero after the summary so scripts reading the curve fail loudly.
	exportBroken := false
	if tsSink != nil {
		if err := tsSink.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "error: timeseries file %s incomplete: %v\n", *timeseriesOut, err)
			exportBroken = true
		} else if err := col.SinkErr(); err != nil {
			fmt.Fprintf(os.Stderr, "error: timeseries file %s incomplete: %v\n", *timeseriesOut, err)
			exportBroken = true
		}
	}
	if *flightOut != "" {
		if err := tracer.Flight().DumpFile(*flightOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	fmt.Printf("scenario        %s, n=%d, W=%d, %s routing, %s restoration\n",
		*topoName, net.Nodes(), *w, algorithm, restoration)
	fmt.Printf("offered         %d requests at %.4g Erlang over horizon %.4g\n",
		m.Offered, *erlang, m.Horizon)
	fmt.Printf("accepted        %d   blocked %d   (blocking %.2f%%)\n",
		m.Accepted, m.Blocked, 100*m.BlockingProbability())
	fmt.Printf("pair cost       %s\n", m.Cost.String())
	fmt.Printf("primary hops    %s\n", m.Hops.String())
	fmt.Printf("network load    mean %.4g   max %.4g\n", m.MeanLoad(), m.MaxNetworkLoad)
	if *reconfigTh > 0 {
		fmt.Printf("reconfigs       %d threshold crossings (ρ ≥ %.3g), %d connections rerouted\n",
			m.Reconfigs, *reconfigTh, m.ReroutedConns)
	}
	if *failures > 0 {
		fmt.Printf("failures        %d events, %d connections affected\n",
			m.FailureEvents, m.AffectedConns)
		fmt.Printf("restoration     %d recovered, %d lost, %d backups degraded\n",
			m.Recovered, m.RecoveryFailed, m.BackupLost)
		if m.Availability.N() > 0 {
			fmt.Printf("availability    %.4f mean served fraction\n", m.Availability.Mean())
		}
		if m.RecoveryWork.N() > 0 {
			fmt.Printf("recovery work   %s links signalled per recovery\n", m.RecoveryWork.String())
		}
	}

	if *soak {
		printCurve(col)
	}

	if *metricsOut != "" {
		if err := reg.WriteFile(*metricsOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *summaryOut != "" {
		cfg := map[string]any{
			"topo": *topoName, "n": net.Nodes(), "w": *w,
			"erlang": *erlang, "count": *count, "seed": *seed,
			"algo": algorithm.String(), "restore": restoration.String(),
			"failures": *failures, "repair": *repair,
			"reconfig": *reconfigTh, "traffic": *traffic, "holding": *holding,
		}
		if err := cli.WriteSummary(*summaryOut, cfg, cli.SummarizeSim(m), reg); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *serveAddr != "" && *linger > 0 {
		// Keep the debug endpoints up so probes (CI smoke tests, manual
		// curls) can inspect the finished run's flight recorder.
		fmt.Fprintf(os.Stderr, "lingering %.3gs for debug probes\n", *linger)
		time.Sleep(time.Duration(*linger * float64(time.Second)))
	}
	if exportBroken {
		os.Exit(1)
	}
}

// printCurve renders the retained telemetry windows as a compact table:
// per-window routing-latency quantiles, blocking, link load and
// reconfigurations, strided so long soaks print at most maxRows rows (every
// window still reaches -timeseries-out and /debug/timeseries).
func printCurve(col *timeseries.Collector) {
	snaps := col.Snapshots(0)
	if len(snaps) == 0 {
		return
	}
	const maxRows = 12
	stride := (len(snaps) + maxRows - 1) / maxRows
	if evicted := col.Evicted(); evicted > 0 {
		fmt.Printf("telemetry curve (last %d of %d windows; older evicted from memory)\n",
			len(snaps), col.TotalSealed())
	} else {
		fmt.Printf("telemetry curve (%d windows)\n", len(snaps))
	}
	fmt.Printf("  %10s %8s %9s %9s %8s %7s %7s %7s\n",
		"t", "offered", "p50(µs)", "p99(µs)", "block%", "ρmean", "ρmax", "reconf")
	for i := 0; i < len(snaps); i += stride {
		s := &snaps[i]
		lat, _ := s.Hist(netsim.SeriesRouteLatency)
		blk, _ := s.RatioOf(netsim.SeriesBlocking)
		lm, _ := s.GaugeOf(timeseries.SeriesLinkLoadMean)
		lx, _ := s.GaugeOf(timeseries.SeriesLinkLoadMax)
		rc, _ := s.RateOf(netsim.SeriesReconfigs)
		fmt.Printf("  %10.4g %8d %9.3g %9.3g %8.3g %7.3f %7.3f %7d\n",
			s.End, blk.Den, lat.P50*1e6, lat.P99*1e6, 100*blk.Value, lm.Last, lx.Last, rc.Count)
	}
}
