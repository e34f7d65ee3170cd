// wdmd is the long-lived routing daemon: it serves provision / teardown /
// reroute / status as HTTP/JSON over snapshot-isolated network state, routed
// on a pool of GOMAXPROCS warm routers, with the standard debug surface
// (/healthz, /metrics, /debug/timeseries, /debug/net, /debug/pprof) built in.
//
//	GOMAXPROCS=8 wdmd -addr localhost:9101 -topo nsfnet -w 8
//	curl -s -X POST -d '{"id":1,"src":0,"dst":9}' localhost:9101/provision
//	curl -s localhost:9101/status
//
// Two load-generator modes share the binary so CI and benchmarks need no
// extra tooling: -soak hammers an in-process engine (no HTTP overhead, the
// ~1M-request experiment), -drive hammers a live daemon over real HTTP (the
// CI smoke).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/slo"
	"repro/internal/timeseries"
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

func main() {
	addr := flag.String("addr", "localhost:9101", "listen address for the HTTP API")
	topoName := flag.String("topo", "nsfnet", "topology: nsfnet, arpa2, ring, waxman")
	n := flag.Int("n", 16, "node count for parametric topologies")
	w := flag.Int("w", 8, "wavelengths per fiber")
	seed := flag.Int64("seed", 1, "topology seed (parametric topologies) and -soak / -drive workload seed")
	algo := flag.String("algo", "min-load-cost", "default routing: min-cost, min-load, min-load-cost, two-step")
	retries := flag.Int("retries", 0, "conflict retry budget per request (0 = 4, -1 = none)")
	candidates := flag.Int("candidates", 0, "candidate fast tier: k precomputed route pairs per node pair (0 = off)")
	journalCap := flag.Int("journal", 0, "retain up to this many commit-ordered journal entries (0 = off)")
	window := flag.Float64("window", 5, "telemetry window width in wall-clock seconds (0 = telemetry off)")
	timeseriesOut := flag.String("timeseries-out", "", "stream sealed telemetry windows to this file (.csv → CSV, else JSONL)")
	sloP99 := flag.Float64("slo-p99", 0, "SLO: p99 request latency ceiling in seconds (0 = off)")
	sloBlocking := flag.Float64("slo-blocking", 0, "SLO: blocking-probability ceiling (0 = off)")
	sloConflicts := flag.Float64("slo-conflict-rate", 0, "SLO: commit-conflict rate ceiling in conflicts/second (0 = off)")
	sloStale := flag.Float64("slo-stale-epochs", 0, "SLO: epoch-publish staleness ceiling in seconds (0 = off)")
	sloShort := flag.Int("slo-short", 0, "SLO short burn window in sealed telemetry windows (0 = 3)")
	sloLong := flag.Int("slo-long", 0, "SLO long burn window in sealed telemetry windows (0 = 12)")
	incidentDir := flag.String("incident-dir", "", "capture incident bundles (pprof + flight + timeseries + status) into this directory on SLO breach")
	incidentEvery := flag.Duration("incident-every", 0, "minimum interval between incident captures (0 = 1m)")
	flightCap := flag.Int("flight", obs.DefaultCapacity, "flight-recorder capacity (last N request traces; 0 = tracing off)")
	soakCount := flag.Int("soak", 0, "soak mode: run this many in-process requests instead of serving, print the report, exit")
	drive := flag.Bool("drive", false, "drive mode: hammer a live daemon at http://<addr> instead of serving (endpoints drawn from its /status node count)")
	count := flag.Int("count", 5000, "request count for -drive")
	clients := flag.Int("clients", 16, "client goroutines for -soak / -drive")
	maxLive := flag.Int("max-live", 32, "per-client live-connection cap for -soak / -drive")
	rerouteEvery := flag.Int("reroute-every", 50, "issue a reroute every n-th soak operation (0 = off)")
	jsonOut := flag.Bool("json", false, "print the -soak / -drive report as JSON")
	version := cli.VersionFlag()
	flag.Parse()
	cli.HandleVersion(*version)

	algorithm, err := core.ParseAlgorithm(*algo)
	if err != nil {
		fatal(err)
	}

	if *drive {
		rep, err := serve.Drive("http://"+*addr, serve.LoadConfig{
			Requests: *count,
			Clients:  *clients,
			Seed:     *seed,
			MaxLive:  *maxLive,
			Drain:    true,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, rep)
			fatal(err)
		}
		report(rep, *jsonOut)
		return
	}

	network, err := cli.BuildTopology(*topoName, *n, *w, *seed)
	if err != nil {
		fatal(err)
	}

	reg := cli.EnableAllMetrics()
	serve.EnableMetrics(reg)
	var tracer *obs.Tracer
	if *flightCap > 0 && *soakCount == 0 {
		tracer = obs.New(obs.Config{Capacity: *flightCap})
	}

	engine := serve.New(network, serve.Config{
		MaxRetries: *retries,
		Algorithm:  algorithm,
		Candidates: *candidates,
		JournalCap: *journalCap,
		Window:     *window,
		Tracer:     tracer,
	})
	if *timeseriesOut != "" {
		if engine.Collector() == nil {
			fatal(fmt.Errorf("-timeseries-out needs telemetry (-window > 0)"))
		}
		snk, err := timeseries.CreateFile(*timeseriesOut)
		if err != nil {
			fatal(err)
		}
		engine.SetTelemetrySink(snk)
	}

	// SLO watchdog: each -slo-* flag declares one objective over the sealed
	// telemetry windows; breaches capture incident bundles into -incident-dir.
	var objectives []slo.Objective
	addObj := func(name, series string, kind slo.Kind, max float64) {
		if max > 0 {
			objectives = append(objectives, slo.Objective{
				Name: name, Series: series, Kind: kind, Max: max,
				ShortWindows: *sloShort, LongWindows: *sloLong,
			})
		}
	}
	addObj("request-p99", serve.SeriesRequestLatency, slo.KindP99, *sloP99)
	addObj("blocking", serve.SeriesBlocking, slo.KindRatio, *sloBlocking)
	addObj("conflict-rate", serve.SeriesConflicts, slo.KindRate, *sloConflicts)
	addObj("epoch-staleness", serve.SeriesEpochs, slo.KindStaleness, *sloStale)
	if len(objectives) > 0 {
		watchdog, err := slo.New(objectives...)
		if err != nil {
			fatal(err)
		}
		watchdog.EnableMetrics(reg)
		var capturer *slo.Capturer
		if *incidentDir != "" {
			capturer, err = slo.NewCapturer(slo.CaptureConfig{
				Dir:         *incidentDir,
				MinInterval: *incidentEvery,
				Flight:      tracer.Flight(),
				Series:      engine.Collector(),
				Status:      func() any { return engine.Status() },
			})
			if err != nil {
				fatal(err)
			}
		}
		if err := engine.AttachSLO(watchdog, capturer); err != nil {
			fatal(err)
		}
	}

	if err := engine.Start(); err != nil {
		fatal(err)
	}

	if *soakCount > 0 {
		rep, err := serve.RunSoak(engine, serve.LoadConfig{
			Requests:     *soakCount,
			Clients:      *clients,
			Seed:         *seed,
			MaxLive:      *maxLive,
			RerouteEvery: *rerouteEvery,
			Drain:        true,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, rep)
			fatal(err)
		}
		report(rep, *jsonOut)
		if err := engine.Close(); err != nil {
			fatal(err)
		}
		return
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	srv := &http.Server{Handler: engine.Handler(reg)}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "wdmd: %s (%d nodes, W=%d, %s) listening on http://%s\n",
		*topoName, engine.Nodes(), engine.W(), algorithm, ln.Addr())

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "wdmd: %v, shutting down\n", sig)
	case err := <-errCh:
		fatal(err)
	}

	// Shutdown order: stop accepting HTTP first, then drain the engine —
	// both error paths are checked (lost sink flushes are real data loss in
	// a soak, and wdmlint errcheck-lite enforces exactly these two calls).
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "wdmd: http shutdown: %v\n", err)
	}
	if err := engine.Close(); err != nil {
		fatal(fmt.Errorf("wdmd: engine close: %w", err))
	}
	fmt.Fprintln(os.Stderr, "wdmd: clean shutdown")
}

// report prints a soak/drive report as text or JSON.
func report(v fmt.Stringer, asJSON bool) {
	if !asJSON {
		fmt.Println(v)
		return
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fatal(err)
	}
}
