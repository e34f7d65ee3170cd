package cli

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/obs/explain"
	"repro/internal/slo"
	"repro/internal/timeseries"
	"repro/internal/topo"
)

// tracedRequest routes one request through a traced router and returns the
// tracer plus the obs request ID of the resulting trace.
func tracedRequest(t *testing.T) (*obs.Tracer, int64) {
	t.Helper()
	net := topo.NSFNET(topo.Config{W: 4})
	tr := obs.New(obs.Config{Capacity: 16})
	r := core.NewRouter(nil)
	r.SetTracer(tr)
	if _, ok := r.ApproxMinCost(net, 0, 9); !ok {
		t.Fatal("ApproxMinCost failed on NSFNET")
	}
	id := r.LastTraceID()
	if id < 1 {
		t.Fatalf("LastTraceID = %d, want a positive request ID", id)
	}
	return tr, id
}

func get(t *testing.T, mux *http.ServeMux, url string) (int, string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, url, nil)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	return rec.Code, rec.Body.String()
}

func TestDebugMuxHealthAndMetrics(t *testing.T) {
	tr, _ := tracedRequest(t)
	mux := DebugMux(DebugOpts{Metrics: metrics.NewRegistry(), Flight: tr.Flight()})

	if code, body := get(t, mux, "/healthz"); code != http.StatusOK || body != "ok\n" {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	if code, _ := get(t, mux, "/metrics"); code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}

	// Without a registry or recorder the endpoints report absence rather
	// than serving empty documents.
	bare := DebugMux(DebugOpts{})
	if code, _ := get(t, bare, "/metrics"); code != http.StatusNotFound {
		t.Fatalf("/metrics with nil registry = %d, want 404", code)
	}
	if code, _ := get(t, bare, "/debug/flight"); code != http.StatusNotFound {
		t.Fatalf("/debug/flight with nil recorder = %d, want 404", code)
	}
}

func TestDebugMuxFlightDump(t *testing.T) {
	tr, id := tracedRequest(t)
	mux := DebugMux(DebugOpts{Flight: tr.Flight()})

	code, body := get(t, mux, "/debug/flight")
	if code != http.StatusOK {
		t.Fatalf("/debug/flight = %d", code)
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if len(lines) != 1 {
		t.Fatalf("dump has %d lines, want 1", len(lines))
	}
	var rec struct {
		Req    int64  `json:"req"`
		Kind   string `json:"kind"`
		Status string `json:"status"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("dump line is not JSON: %v", err)
	}
	if rec.Req != id || rec.Kind != "min-cost" || rec.Status != obs.StatusOK {
		t.Fatalf("dump line = %+v, want req %d kind min-cost status ok", rec, id)
	}
}

func TestDebugMuxExplain(t *testing.T) {
	tr, id := tracedRequest(t)
	mux := DebugMux(DebugOpts{Flight: tr.Flight()})

	code, body := get(t, mux, fmt.Sprintf("/debug/explain/%d", id))
	if code != http.StatusOK {
		t.Fatalf("/debug/explain/%d = %d: %s", id, code, body)
	}
	var rep explain.Report
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("explain JSON: %v", err)
	}
	if rep.Req != id || rep.Algorithm != "min-cost" || len(rep.Primary.Hops) == 0 {
		t.Fatalf("report = req %d algo %q hops %d", rep.Req, rep.Algorithm, len(rep.Primary.Hops))
	}

	code, body = get(t, mux, fmt.Sprintf("/debug/explain/%d?format=text", id))
	if code != http.StatusOK || !strings.Contains(body, "min-cost") || !strings.Contains(body, "bound") {
		t.Fatalf("text explain = %d %q", code, body)
	}

	if code, _ := get(t, mux, "/debug/explain/999999"); code != http.StatusNotFound {
		t.Fatalf("unknown id = %d, want 404", code)
	}
	if code, _ := get(t, mux, "/debug/explain/nope"); code != http.StatusBadRequest {
		t.Fatalf("malformed id = %d, want 400", code)
	}
}

func TestDebugMuxTimeseries(t *testing.T) {
	col := timeseries.New(1)
	r := &metrics.Counter{}
	col.Rate("events", r)
	for w := 0; w < 5; w++ {
		r.Inc()
		col.Advance(float64(w + 1))
	}
	mux := DebugMux(DebugOpts{Series: col})

	code, body := get(t, mux, "/debug/timeseries")
	if code != http.StatusOK {
		t.Fatalf("/debug/timeseries = %d", code)
	}
	var snaps []timeseries.Snapshot
	if err := json.Unmarshal([]byte(body), &snaps); err != nil {
		t.Fatalf("timeseries JSON: %v", err)
	}
	if len(snaps) != 5 || snaps[0].Window != 0 {
		t.Fatalf("got %d windows, first %+v", len(snaps), snaps[0])
	}

	code, body = get(t, mux, "/debug/timeseries?last=2")
	if err := json.Unmarshal([]byte(body), &snaps); code != http.StatusOK || err != nil {
		t.Fatalf("last=2: %d %v", code, err)
	}
	if len(snaps) != 2 || snaps[0].Window != 3 || snaps[1].Window != 4 {
		t.Fatalf("last=2 returned %+v", snaps)
	}

	if code, _ := get(t, mux, "/debug/timeseries?last=nope"); code != http.StatusBadRequest {
		t.Fatalf("malformed last = %d, want 400", code)
	}
	if code, _ := get(t, DebugMux(DebugOpts{}), "/debug/timeseries"); code != http.StatusNotFound {
		t.Fatalf("disabled collector = %d, want 404", code)
	}
}

func TestDebugMuxNetState(t *testing.T) {
	var state *timeseries.NetState
	mux := DebugMux(DebugOpts{NetState: func() *timeseries.NetState { return state }})

	// Enabled but nothing sealed yet: 404 so probes can distinguish phases.
	if code, _ := get(t, mux, "/debug/net"); code != http.StatusNotFound {
		t.Fatalf("pre-seal /debug/net = %d, want 404", code)
	}

	state = timeseries.ProbeNetwork(topo.NSFNET(topo.Config{W: 4}), 7.5, 3)
	code, body := get(t, mux, "/debug/net")
	if code != http.StatusOK {
		t.Fatalf("/debug/net = %d", code)
	}
	var ns timeseries.NetState
	if err := json.Unmarshal([]byte(body), &ns); err != nil {
		t.Fatalf("net JSON: %v", err)
	}
	if ns.Time != 7.5 || ns.Nodes != 14 || ns.ActiveConns != 3 || len(ns.Links) == 0 {
		t.Fatalf("NetState = %+v", ns)
	}

	if code, _ := get(t, DebugMux(DebugOpts{}), "/debug/net"); code != http.StatusNotFound {
		t.Fatalf("disabled probe = %d, want 404", code)
	}
}

// TestDebugMuxBadQueryParams pins the hardened parameter handling: every
// malformed query parameter on the debug surface answers HTTP 400 with a
// JSON {"error": ...} body, never a free-text 500 or a silent default.
func TestDebugMuxBadQueryParams(t *testing.T) {
	tr, id := tracedRequest(t)
	col := timeseries.New(1)
	mux := DebugMux(DebugOpts{Flight: tr.Flight(), Series: col})

	cases := []struct {
		name string
		url  string
	}{
		{"timeseries last not a number", "/debug/timeseries?last=nope"},
		{"timeseries negative last", "/debug/timeseries?last=-3"},
		{"timeseries float last", "/debug/timeseries?last=1.5"},
		{"flight req not a number", "/debug/flight?req=abc"},
		{"flight negative req", "/debug/flight?req=-1"},
		{"flight overflow req", "/debug/flight?req=99999999999999999999"},
		{"explain malformed id", "/debug/explain/nope"},
		{"explain empty id", "/debug/explain/"},
		{"explain unknown format", fmt.Sprintf("/debug/explain/%d?format=xml", id)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body := get(t, mux, tc.url)
			if code != http.StatusBadRequest {
				t.Fatalf("GET %s = %d %q, want 400", tc.url, code, body)
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal([]byte(body), &e); err != nil || e.Error == "" {
				t.Fatalf("GET %s body %q is not a JSON error (%v)", tc.url, body, err)
			}
		})
	}

	// The explicit formats still work after the validation tightening.
	for _, format := range []string{"json", "text"} {
		url := fmt.Sprintf("/debug/explain/%d?format=%s", id, format)
		if code, body := get(t, mux, url); code != http.StatusOK {
			t.Fatalf("GET %s = %d %q", url, code, body)
		}
	}
}

// TestDebugMuxFlightReqFilter: ?req=<id> narrows the dump to one request's
// traces — the server side of the X-Wdmd-Req join.
func TestDebugMuxFlightReqFilter(t *testing.T) {
	net := topo.NSFNET(topo.Config{W: 4})
	tr := obs.New(obs.Config{Capacity: 16})
	r := core.NewRouter(nil)
	r.SetTracer(tr)
	if _, ok := r.ApproxMinCost(net, 0, 9); !ok {
		t.Fatal("route 0→9 failed")
	}
	id1 := r.LastTraceID()
	if _, ok := r.ApproxMinCost(net, 1, 7); !ok {
		t.Fatal("route 1→7 failed")
	}
	id2 := r.LastTraceID()
	mux := DebugMux(DebugOpts{Flight: tr.Flight()})

	code, body := get(t, mux, fmt.Sprintf("/debug/flight?req=%d", id1))
	if code != http.StatusOK {
		t.Fatalf("filtered dump = %d %q", code, body)
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if len(lines) != 1 {
		t.Fatalf("filter for req %d returned %d lines, want 1", id1, len(lines))
	}
	var rec struct {
		Req int64 `json:"req"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil || rec.Req != id1 {
		t.Fatalf("filtered line %q: err %v, req %d want %d (other trace %d)", lines[0], err, rec.Req, id1, id2)
	}

	// Evicted / never-traced IDs answer a structured 404.
	code, body = get(t, mux, "/debug/flight?req=999999")
	if code != http.StatusNotFound {
		t.Fatalf("unknown req = %d, want 404", code)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal([]byte(body), &e); err != nil || e.Error == "" {
		t.Fatalf("unknown req body %q is not a JSON error", body)
	}
}

// TestDebugMuxSLOAndIncidents covers the two observability endpoints: 404
// with nothing wired, well-formed JSON status documents otherwise.
func TestDebugMuxSLOAndIncidents(t *testing.T) {
	bare := DebugMux(DebugOpts{})
	for _, path := range []string{"/debug/slo", "/debug/incidents"} {
		if code, _ := get(t, bare, path); code != http.StatusNotFound {
			t.Fatalf("GET %s unwired = %d, want 404", path, code)
		}
	}

	wd, err := slo.New(slo.Objective{Name: "p99", Series: "lat", Kind: slo.KindP99, Max: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	capt, err := slo.NewCapturer(slo.CaptureConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	mux := DebugMux(DebugOpts{SLO: wd, Incidents: capt})

	code, body := get(t, mux, "/debug/slo")
	if code != http.StatusOK {
		t.Fatalf("/debug/slo = %d %q", code, body)
	}
	var st slo.Status
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("/debug/slo JSON: %v", err)
	}
	if st.State != "healthy" || len(st.Objectives) != 1 || st.Objectives[0].Name != "p99" {
		t.Fatalf("/debug/slo status = %+v", st)
	}

	code, body = get(t, mux, "/debug/incidents")
	if code != http.StatusOK {
		t.Fatalf("/debug/incidents = %d %q", code, body)
	}
	var cs slo.CaptureStatus
	if err := json.Unmarshal([]byte(body), &cs); err != nil {
		t.Fatalf("/debug/incidents JSON: %v", err)
	}
	if cs.Dir == "" || len(cs.Bundles) != 0 {
		t.Fatalf("/debug/incidents status = %+v", cs)
	}
}

func TestDebugMuxPprofIndex(t *testing.T) {
	mux := DebugMux(DebugOpts{})
	if code, body := get(t, mux, "/debug/pprof/"); code != http.StatusOK || !strings.Contains(body, "profile") {
		t.Fatalf("/debug/pprof/ = %d", code)
	}
}

func TestStartDebugServer(t *testing.T) {
	tr, _ := tracedRequest(t)
	addr, err := StartDebugServer("127.0.0.1:0", DebugOpts{Flight: tr.Flight()})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK || string(body) != "ok\n" {
		t.Fatalf("GET /healthz over TCP = %d %q (%v)", resp.StatusCode, body, err)
	}
}

func TestDebugMuxPprofProfiles(t *testing.T) {
	mux := DebugMux(DebugOpts{})
	if code, body := get(t, mux, "/debug/pprof/goroutine?debug=1"); code != http.StatusOK || !strings.Contains(body, "goroutine profile:") {
		t.Fatalf("/debug/pprof/goroutine?debug=1 = %d %q", code, body)
	}
	if code, body := get(t, mux, "/debug/pprof/heap"); code != http.StatusOK || !strings.HasPrefix(body, "\x1f\x8b") {
		t.Fatalf("/debug/pprof/heap = %d, want a gzipped profile", code)
	}
	if code, body := get(t, mux, "/debug/pprof/profile?seconds=0"); code != http.StatusOK || !strings.HasPrefix(body, "\x1f\x8b") {
		t.Fatalf("/debug/pprof/profile?seconds=0 = %d %q, want a gzipped profile", code, body)
	}
	if code, body := get(t, mux, "/debug/pprof/trace?seconds=0"); code != http.StatusOK || !strings.HasPrefix(body, "go 1.") {
		t.Fatalf("/debug/pprof/trace?seconds=0 = %d, want an execution trace", code)
	}
	for url, want := range map[string]int{
		"/debug/pprof/nosuch":             http.StatusNotFound,
		"/debug/pprof/heap?debug=x":       http.StatusBadRequest,
		"/debug/pprof/profile?seconds=-1": http.StatusBadRequest,
	} {
		if code, _ := get(t, mux, url); code != want {
			t.Errorf("%s = %d, want %d", url, code, want)
		}
	}
}

// TestDefaultMuxHasNoPprof guards against a dependency registering the
// profiling handlers on http.DefaultServeMux: the debug endpoints belong to
// DebugMux alone.
func TestDefaultMuxHasNoPprof(t *testing.T) {
	rec := httptest.NewRecorder()
	http.DefaultServeMux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("DefaultServeMux /debug/pprof/ = %d, want 404", rec.Code)
	}
}
