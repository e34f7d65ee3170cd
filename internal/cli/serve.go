package cli

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/obs/explain"
	"repro/internal/slo"
	"repro/internal/timeseries"
)

// DebugOpts selects which data sources the debug handler exposes. Any field
// may be nil; its endpoints then answer 404 so probes can tell "not enabled"
// from "not yet populated".
type DebugOpts struct {
	// Metrics backs /metrics (Prometheus text exposition).
	Metrics *metrics.Registry
	// Flight backs /debug/flight and /debug/explain/<id>.
	Flight *obs.FlightRecorder
	// Series backs /debug/timeseries: sealed telemetry windows as JSON.
	Series *timeseries.Collector
	// NetState backs /debug/net; it is called per request and should return
	// the latest sealed network snapshot (nil until one exists): the
	// NetState method of a netsim.Sim or a serve.Engine.
	NetState func() *timeseries.NetState
	// SLO backs /debug/slo: the watchdog's objective states and burn rates.
	SLO *slo.Watchdog
	// Incidents backs /debug/incidents: captured incident bundles.
	Incidents *slo.Capturer
}

// jsonError writes a structured error body, so programmatic clients of the
// debug API never have to scrape free-text messages on bad parameters.
func jsonError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// queryInt reads a non-negative integer query parameter, def when absent; on
// a malformed value it answers 400 and returns false.
func queryInt(w http.ResponseWriter, r *http.Request, key string, def int) (int, bool) {
	q := r.URL.Query().Get(key)
	if q == "" {
		return def, true
	}
	n, err := strconv.Atoi(q)
	if err != nil || n < 0 {
		jsonError(w, http.StatusBadRequest, fmt.Sprintf("bad %s=%q: want a non-negative integer", key, q))
		return 0, false
	}
	return n, true
}

// DebugMux builds the debug HTTP handler shared by wdmsim -serve, wdmbench
// -pprof, wdmd and tests:
//
//	/healthz              liveness probe (200 "ok")
//	/metrics              Prometheus text exposition (404 if not enabled)
//	/debug/flight         flight-recorder dump as JSONL, oldest trace first
//	/debug/explain/<id>   explain report for request <id> (JSON; ?format=text)
//	/debug/timeseries     sealed telemetry windows, oldest first (?last=N)
//	/debug/net            latest per-link network-state snapshot
//	/debug/slo            SLO watchdog state and burn rates
//	/debug/incidents      captured incident bundles
//	/debug/pprof/*        the runtime profiles and execution trace (see servePprof)
//
// Bad query parameters (non-numeric last=/req=, unknown format=) answer
// HTTP 400 with a JSON {"error": ...} body.
//
// It never touches http.DefaultServeMux, so several servers (or tests) can
// coexist in one process.
func DebugMux(o DebugOpts) *http.ServeMux {
	reg, fr := o.Metrics, o.Flight
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		if reg == nil {
			http.Error(w, "metrics registry not enabled", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = reg.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/flight", func(w http.ResponseWriter, r *http.Request) {
		if fr == nil {
			http.Error(w, "flight recorder not enabled", http.StatusNotFound)
			return
		}
		// Dump into a buffer first: once a partial body is on the wire the
		// status code is committed, so encoding errors could no longer be
		// reported to the client.
		var buf bytes.Buffer
		if q := r.URL.Query().Get("req"); q != "" {
			// ?req=<id> filters the dump to one request's traces — the join
			// target of the X-Wdmd-Req response header.
			id, err := strconv.ParseInt(q, 10, 64)
			if err != nil || id < 0 {
				jsonError(w, http.StatusBadRequest, fmt.Sprintf("bad req=%q: want a non-negative integer", q))
				return
			}
			found, err := fr.DumpReq(&buf, id)
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			if !found {
				jsonError(w, http.StatusNotFound, fmt.Sprintf("request %d not in the flight recorder (evicted or never traced)", id))
				return
			}
		} else if err := fr.Dump(&buf); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		_, _ = buf.WriteTo(w)
	})
	mux.HandleFunc("/debug/explain/", func(w http.ResponseWriter, r *http.Request) {
		if fr == nil {
			http.Error(w, "flight recorder not enabled", http.StatusNotFound)
			return
		}
		idStr := strings.TrimPrefix(r.URL.Path, "/debug/explain/")
		id, err := strconv.ParseInt(idStr, 10, 64)
		if err != nil {
			jsonError(w, http.StatusBadRequest, fmt.Sprintf("bad request id %q", idStr))
			return
		}
		format := r.URL.Query().Get("format")
		if format != "" && format != "text" && format != "json" {
			jsonError(w, http.StatusBadRequest, fmt.Sprintf("bad format=%q: want \"text\" or \"json\"", format))
			return
		}
		tc := fr.Find(id)
		if tc == nil {
			http.Error(w, fmt.Sprintf("request %d not in the flight recorder (evicted or never traced)", id), http.StatusNotFound)
			return
		}
		rep := explain.Of(tc)
		if rep == nil {
			http.Error(w, fmt.Sprintf("request %d has no explain report (status %s)", id, tc.Status), http.StatusNotFound)
			return
		}
		var buf bytes.Buffer
		if format == "text" {
			err = rep.WriteText(&buf)
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		} else {
			err = rep.WriteJSON(&buf)
			w.Header().Set("Content-Type", "application/json")
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		_, _ = buf.WriteTo(w)
	})
	mux.HandleFunc("/debug/timeseries", func(w http.ResponseWriter, r *http.Request) {
		if o.Series == nil {
			http.Error(w, "timeseries collector not enabled", http.StatusNotFound)
			return
		}
		last, ok := queryInt(w, r, "last", 0) // 0 = everything retained
		if !ok {
			return
		}
		snaps := o.Series.Snapshots(last)
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		if err := enc.Encode(snaps); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = buf.WriteTo(w)
	})
	mux.HandleFunc("/debug/net", func(w http.ResponseWriter, _ *http.Request) {
		if o.NetState == nil {
			http.Error(w, "network-state probe not enabled", http.StatusNotFound)
			return
		}
		ns := o.NetState()
		if ns == nil {
			http.Error(w, "no network snapshot sealed yet", http.StatusNotFound)
			return
		}
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		if err := enc.Encode(ns); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = buf.WriteTo(w)
	})
	mux.HandleFunc("/debug/slo", func(w http.ResponseWriter, _ *http.Request) {
		if o.SLO == nil {
			http.Error(w, "slo watchdog not enabled", http.StatusNotFound)
			return
		}
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		if err := enc.Encode(o.SLO.Status()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = buf.WriteTo(w)
	})
	mux.HandleFunc("/debug/incidents", func(w http.ResponseWriter, _ *http.Request) {
		if o.Incidents == nil {
			http.Error(w, "incident capture not enabled", http.StatusNotFound)
			return
		}
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		if err := enc.Encode(o.Incidents.Status()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = buf.WriteTo(w)
	})
	mux.HandleFunc("/debug/pprof/", servePprof)
	return mux
}

// StartDebugServer binds addr (e.g. "localhost:0"), serves DebugMux in a
// background goroutine, and returns the bound address for log lines and CI
// probes. The listener lives until the process exits.
func StartDebugServer(addr string, o DebugOpts) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	go func() { _ = http.Serve(ln, DebugMux(o)) }()
	return ln.Addr().String(), nil
}
