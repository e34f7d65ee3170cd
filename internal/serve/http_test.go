package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/topo"
)

// newTestServer serves a started engine's full HTTP surface.
func newTestServer(t *testing.T) (*Engine, *httptest.Server) {
	t.Helper()
	e := startEngine(t, nsf(8), Config{Window: 1})
	srv := httptest.NewServer(e.Handler(nil))
	t.Cleanup(srv.Close)
	return e, srv
}

func postJSON(t *testing.T, url, body string) (*http.Response, Response) {
	t.Helper()
	httpResp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = httpResp.Body.Close() }()
	var resp Response
	if httpResp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
			t.Fatalf("decode %s response: %v", url, err)
		}
	}
	return httpResp, resp
}

// TestHTTPRoundTrip drives provision → status → reroute → teardown through
// the real HTTP surface.
func TestHTTPRoundTrip(t *testing.T) {
	e, srv := newTestServer(t)

	httpResp, resp := postJSON(t, srv.URL+"/provision", `{"id":1,"src":0,"dst":9}`)
	if httpResp.StatusCode != http.StatusOK || !resp.Accepted {
		t.Fatalf("provision: HTTP %d, %+v", httpResp.StatusCode, resp)
	}
	if resp.Op != "provision" || len(resp.Primary) == 0 || len(resp.Backup) == 0 || resp.Cost <= 0 {
		t.Fatalf("thin provision response: %+v", resp)
	}

	st, err := http.Get(srv.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = st.Body.Close() }()
	var stats Stats
	if err := json.NewDecoder(st.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.LiveConns != 1 || stats.Accepted != 1 {
		t.Fatalf("status after one admission: %+v", stats)
	}

	if _, resp = postJSON(t, srv.URL+"/reroute", `{"id":1}`); resp.Op != "reroute" {
		t.Fatalf("reroute response: %+v", resp)
	}
	if _, resp = postJSON(t, srv.URL+"/teardown", `{"id":1}`); !resp.Accepted {
		t.Fatalf("teardown rejected: %+v", resp)
	}
	if n := e.LiveConnections(); n != 0 {
		t.Fatalf("%d live connections after teardown", n)
	}

	// Domain rejection is HTTP 200 + accepted:false, not an HTTP error.
	httpResp, resp = postJSON(t, srv.URL+"/teardown", `{"id":404}`)
	if httpResp.StatusCode != http.StatusOK || resp.Accepted || resp.Reason != ReasonUnknownConn {
		t.Fatalf("unknown teardown: HTTP %d, %+v", httpResp.StatusCode, resp)
	}
}

// TestHTTPBadBodies: malformed bodies are HTTP 400 before touching the
// engine.
func TestHTTPBadBodies(t *testing.T) {
	_, srv := newTestServer(t)
	for _, body := range []string{
		``,
		`not json`,
		`[1,2,3]`,
		`{"id":1,"bogus":true}`,
		`{"id":1}{"id":2}`,
		`{"id":1} trailing`,
	} {
		httpResp, _ := postJSON(t, srv.URL+"/provision", body)
		if httpResp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q: HTTP %d, want 400", body, httpResp.StatusCode)
		}
	}
}

// TestHTTPDebugSurface: the shared debug mux is mounted (healthz, net state,
// timeseries) alongside the request API.
func TestHTTPDebugSurface(t *testing.T) {
	_, srv := newTestServer(t)
	postJSON(t, srv.URL+"/provision", `{"id":1,"src":0,"dst":9}`)
	for _, path := range []string{"/healthz", "/debug/timeseries"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: HTTP %d", path, resp.StatusCode)
		}
	}
	// /debug/net serves the last *sealed* window's probe; right after start
	// none exists yet, so the wired-but-empty 404 is the expected answer (the
	// "not enabled" 404 would mean the probe was never mounted).
	resp, err := http.Get(srv.URL + "/debug/net")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		return
	}
	if !strings.Contains(string(body), "no network snapshot sealed yet") {
		t.Fatalf("GET /debug/net: HTTP %d, %q — probe not wired", resp.StatusCode, body)
	}
}

// TestHTTPFlightAfterBlockedMinLoadCost: a min-load-cost provision that
// finds no two disjoint routes records the MinCog bottleneck L* = +Inf in its
// trace, and /debug/flight still dumps the ring, with that value as "+Inf".
func TestHTTPFlightAfterBlockedMinLoadCost(t *testing.T) {
	tr := obs.New(obs.Config{Capacity: 16})
	e := startEngine(t, ring4(1), Config{Tracer: tr})
	srv := httptest.NewServer(e.Handler(nil))
	t.Cleanup(srv.Close)

	// One channel per link: the first 0→2 pair takes both of 0's outgoing
	// links, so the second request is blocked.
	for id, want := range []bool{true, false} {
		body := `{"id":` + strconv.Itoa(id+1) + `,"src":0,"dst":2,"algo":"min-load-cost"}`
		if _, resp := postJSON(t, srv.URL+"/provision", body); resp.Accepted != want {
			t.Fatalf("provision %d: accepted %v, want %v (%+v)", id+1, resp.Accepted, want, resp)
		}
	}
	resp, err := http.Get(srv.URL + "/debug/flight")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/flight after a blocked request: HTTP %d %q", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), `"bottleneck":"+Inf"`) {
		t.Fatalf("flight dump lacks the blocked request's bottleneck +Inf:\n%s", body)
	}
}

// TestDrive exercises the HTTP load generator end to end against a live
// test server — the same path the CI smoke uses via wdmd -drive.
func TestDrive(t *testing.T) {
	e, srv := newTestServer(t)
	rep, err := Drive(srv.URL, LoadConfig{
		Requests: 500,
		Clients:  8,
		Seed:     2,
		Drain:    true,
	})
	if err != nil {
		t.Fatalf("drive: %v\n%s", err, rep)
	}
	if rep.Provisions == 0 || rep.Errors != 0 {
		t.Fatalf("degenerate drive run: %s", rep)
	}
	for _, id := range e.LiveIDs() {
		if resp := e.Teardown(id); !resp.Accepted {
			t.Fatalf("post-drive drain %d: %+v", id, resp)
		}
	}
	if err := e.Audit(); err != nil {
		t.Fatalf("audit after drive: %v", err)
	}
}

// TestDriveDrawsDaemonNodes drives a 6-node daemon with the default load
// settings: Drive must draw endpoints from the node count the daemon
// reports, so every provision it counts is one the engine counted too. A
// driver drawing from a larger node range would count the engine's
// bad-request rejections as blocked provisions the engine never saw.
func TestDriveDrawsDaemonNodes(t *testing.T) {
	e := startEngine(t, topo.Ring(6, topo.Config{W: 4}), Config{})
	srv := httptest.NewServer(e.Handler(nil))
	t.Cleanup(srv.Close)
	rep, err := Drive(srv.URL, LoadConfig{Requests: 2000, Clients: 4, Seed: 5, Drain: true})
	if err != nil {
		t.Fatalf("drive: %v\n%s", err, rep)
	}
	st := e.Status()
	if rep.Provisions == 0 || rep.Provisions != st.Provisions {
		t.Fatalf("drive counted %d provisions, the engine %d", rep.Provisions, st.Provisions)
	}
	if rep.Blocked != st.Blocked || rep.Epochs != st.Epoch {
		t.Fatalf("drive report %s disagrees with the engine's status %+v", rep, st)
	}
	if n := e.LiveConnections(); n != 0 {
		t.Fatalf("%d connections survive the drained drive", n)
	}
}

// FuzzRequestDecode: DecodeRequest must never panic and must only return
// (req, nil) for bodies that re-encode losslessly through the Request schema.
func FuzzRequestDecode(f *testing.F) {
	f.Add([]byte(`{"id":1,"src":0,"dst":9}`))
	f.Add([]byte(`{"id":1,"src":0,"dst":9,"algo":"min-cost"}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(``))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"id":9223372036854775807}`))
	f.Add([]byte(`{"id":1}{"id":2}`))
	f.Add([]byte(`[{"id":1}]`))
	f.Add([]byte("{\"id\":1,\n\"src\":2}\n"))
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := DecodeRequest(strings.NewReader(string(body)))
		if err != nil {
			return
		}
		// A successful decode must survive a marshal/decode round trip.
		enc, merr := json.Marshal(req)
		if merr != nil {
			t.Fatalf("accepted request does not re-encode: %v", merr)
		}
		req2, derr := DecodeRequest(strings.NewReader(string(enc)))
		if derr != nil {
			t.Fatalf("re-encoded request does not decode: %v", derr)
		}
		if req != req2 {
			t.Fatalf("round trip changed the request: %+v vs %+v", req, req2)
		}
	})
}

// TestHTTPResponseFormats pins the wire formats: an op response is one
// compact JSON line plus the trailing newline, while /status stays indented
// one field per line, the shape line-oriented tools (sed, grep) read.
func TestHTTPResponseFormats(t *testing.T) {
	_, srv := newTestServer(t)
	for _, c := range []struct{ path, body string }{
		{"/provision", `{"id":1,"src":0,"dst":9}`},
		{"/reroute", `{"id":1}`},
		{"/teardown", `{"id":1}`},
	} {
		r, err := http.Post(srv.URL+c.path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(r.Body)
		_ = r.Body.Close()
		if !strings.HasSuffix(string(body), "}\n") || strings.Count(string(body), "\n") != 1 {
			t.Fatalf("%s response %q: want one compact line ending in a newline", c.path, body)
		}
	}
	r, err := http.Get(srv.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(r.Body)
	_ = r.Body.Close()
	if !strings.Contains(string(body), "\n  \"provisions\": 1,\n") {
		t.Fatalf("/status is not indented one field per line:\n%s", body)
	}
}
