package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/obs"
	"repro/internal/serve"
)

// Operation names, as both the engine methods and the HTTP paths know them.
const (
	opProvision = "provision"
	opTeardown  = "teardown"
	opReroute   = "reroute"
)

var clientSpanName = map[string]string{
	opProvision: "client." + opProvision,
	opTeardown:  "client." + opTeardown,
	opReroute:   "client." + opReroute,
}

// spanHeader carries the client span ID to the server-side span, so both
// sides of one exchange join in one trace (they share a process and clock).
const spanHeader = "X-Bench-Span"

// served is one engine built exactly as wdmd's serving mode builds it at its
// flag defaults, optionally behind a loopback HTTP server.
type served struct {
	engine *serve.Engine
	mux    http.Handler // the engine's API and debug surface, /metrics included
	srv    *http.Server
	url    string
	done   chan error // srv.Serve's return value
}

// startServed sets up one serving stack: topology, metrics, flight
// recorder, engine, and, with withHTTP, a listener and server.
func startServed(withHTTP bool, rec *recorder) (*served, error) {
	network, err := cli.BuildTopology(topoName, 0, topoW, 0)
	if err != nil {
		return nil, err
	}
	reg := cli.EnableAllMetrics()
	serve.EnableMetrics(reg)
	e := serve.New(network, serve.Config{
		Algorithm: serve.AlgoMinLoadCost,
		Window:    5,
		Tracer:    obs.New(obs.Config{Capacity: obs.DefaultCapacity}),
	})
	if err := e.Start(); err != nil {
		return nil, err
	}
	s := &served{engine: e, mux: e.Handler(reg)}
	if !withHTTP {
		return s, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, e.Close())
	}
	h := s.mux
	if rec != nil {
		h = serverSpans(rec, h)
	}
	s.srv = &http.Server{Handler: h}
	s.url = "http://" + ln.Addr().String()
	s.done = make(chan error, 1)
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// close stops the HTTP server, then drains the engine.
func (s *served) close() error {
	var errs []error
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.srv.Shutdown(ctx); err != nil {
			errs = append(errs, fmt.Errorf("http shutdown: %w", err))
		}
		if err := <-s.done; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, fmt.Errorf("http serve: %w", err))
		}
	}
	if err := s.engine.Close(); err != nil {
		errs = append(errs, fmt.Errorf("engine close: %w", err))
	}
	return errors.Join(errs...)
}

// serverSpans records an http.server span around every request, parented
// to the client span named in the request header.
func serverSpans(rec *recorder, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64) // absent → root span
		sp := rec.begin("http.server", parent)
		next.ServeHTTP(w, r)
		rec.end(sp)
	})
}

// caller issues one operation and returns the engine's answer; parent is
// the client span the call runs under (0 when untraced).
type caller func(op string, req serve.Request, parent int64) (serve.Response, error)

func engineCaller(e *serve.Engine) caller {
	return func(op string, req serve.Request, _ int64) (serve.Response, error) {
		switch op {
		case opProvision:
			return e.Provision(req), nil
		case opTeardown:
			return e.Teardown(req.ID), nil
		}
		return e.Reroute(req.ID), nil
	}
}

// httpCaller sends JSON over one keep-alive connection to base. The
// returned func closes the connection.
func httpCaller(base string) (caller, func()) {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	client := &http.Client{Transport: tr, Timeout: 30 * time.Second}
	call := func(op string, req serve.Request, parent int64) (serve.Response, error) {
		body, err := json.Marshal(req)
		if err != nil {
			return serve.Response{}, err
		}
		hreq, err := http.NewRequest(http.MethodPost, base+"/"+op, bytes.NewReader(body))
		if err != nil {
			return serve.Response{}, err
		}
		hreq.Header.Set("Content-Type", "application/json")
		if parent != 0 {
			hreq.Header.Set(spanHeader, strconv.FormatInt(parent, 10))
		}
		resp, err := client.Do(hreq)
		if err != nil {
			return serve.Response{}, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			_, _ = io.Copy(io.Discard, resp.Body) // keep the connection reusable
			return serve.Response{}, fmt.Errorf("%s: HTTP %d", op, resp.StatusCode)
		}
		var out serve.Response
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return serve.Response{}, fmt.Errorf("%s: decode response: %w", op, err)
		}
		_, _ = io.Copy(io.Discard, resp.Body) // trailing newline; keeps the connection reusable
		return out, nil
	}
	return call, tr.CloseIdleConnections
}

// verdict classifies an answer. A provision is accepted or refused; a
// reroute succeeds or is refused and keeps its paths; a teardown must
// succeed. Refused means no route, or a lost commit race even after the
// engine's retries — what the engine itself counts as blocked. Any other
// answer, or any transport error, is a failed operation, described by why.
func verdict(op string, resp serve.Response, err error) (accepted, failed bool, why string) {
	refused := resp.Reason == serve.ReasonNoRoute || resp.Reason == serve.ReasonConflict
	switch {
	case err != nil:
		return false, true, err.Error()
	case resp.Accepted:
		return true, false, ""
	case refused && op != opTeardown:
		return false, false, ""
	}
	return false, true, fmt.Sprintf("%s %d: %s %s", op, resp.ID, resp.Reason, resp.Detail)
}

// scrape is the engine's /metrics exposition and /status at one instant.
type scrape struct {
	prom   map[string]float64 // sample name → value (histogram buckets skipped)
	status serve.Stats
}

func (s *served) scrape() (scrape, error) {
	w := httptest.NewRecorder()
	s.mux.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if w.Code != http.StatusOK {
		return scrape{}, fmt.Errorf("GET /metrics: HTTP %d", w.Code)
	}
	prom, err := parseProm(w.Body)
	return scrape{prom: prom, status: s.engine.Status()}, err
}

// parseProm reads the unlabelled samples of a Prometheus text exposition.
func parseProm(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("metrics line %q: no value", line)
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[name] = v
	}
	return out, sc.Err()
}

// delta returns the change of a sample between two scrapes.
func delta(a, b scrape, name string) float64 { return b.prom[name] - a.prom[name] }

// stages are the daemon's stage timers; their sums add up to
// wdmd_request_seconds by construction.
var stages = []string{"queue", "snapshot", "route", "commit", "reroute"}

// servingLayers derives the run's per-layer metrics and the serving ledger
// from the scrapes around the timed phase and the client/server spans.
func servingLayers(o *outcome, rec *recorder, a, b scrape, withHTTP bool) {
	reqSum := delta(a, b, "wdmd_request_seconds_sum")
	reqCount := delta(a, b, "wdmd_request_seconds_count")
	routeSum := delta(a, b, "wdmd_stage_route_seconds_sum")
	var client spanTotals
	for _, name := range clientSpanName {
		t := rec.totalsOf(name)
		client.count += t.count
		client.total += t.total
		client.child += t.child
	}
	o.layers["core.route_us"] = routeSum / delta(a, b, "wdmd_stage_route_seconds_count") * 1e6
	o.layers["pipeline.self_us"] = (us(client.total) - routeSum*1e6) / float64(client.count)

	d := o.ledger
	d["serve.request_us"] = reqSum / reqCount * 1e6
	stageSum := 0.0
	for _, st := range stages {
		sum := delta(a, b, "wdmd_stage_"+st+"_seconds_sum")
		stageSum += sum
		d["serve."+st+"_us"] = sum / reqCount * 1e6
	}
	d["serve.stage_gap"] = 1 - stageSum/reqSum
	if gap := d["serve.stage_gap"]; gap > 0.05 || gap < -0.05 {
		o.violate("serve stage timers cover %.4f of request time; want within 0.05 of 1", 1-gap)
	}
	d["serve.conflict_ratio"] = delta(a, b, "wdmd_conflicts_total") / delta(a, b, "wdmd_provision_total")
	commits := (b.status.Accepted + b.status.Teardowns + b.status.RerouteOK) - (a.status.Accepted + a.status.Teardowns + a.status.RerouteOK)
	d["serve.commits_per_epoch"] = float64(commits) / float64(b.status.Epoch-a.status.Epoch)
	if !withHTTP {
		d["client.self_us"] = (us(client.total) - reqSum*1e6) / float64(client.count)
		return
	}
	decodeSum := delta(a, b, "wdmd_stage_decode_seconds_sum")
	server := rec.totalsOf("http.server")
	d["http.decode_us"] = decodeSum / delta(a, b, "wdmd_stage_decode_seconds_count") * 1e6
	d["http.server_self_us"] = (us(server.total) - (reqSum+decodeSum)*1e6) / float64(server.count)
	d["net.client_self_us"] = us(client.selfTime()) / float64(client.count)
}
