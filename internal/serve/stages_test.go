package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/slo"
)

// TestPublishedMetricsMatchStatus pins the one-accumulator contract: the
// wdmd_* counters on /metrics are the very counters /status reads, and an
// engine built later replaces an earlier engine's entries instead of adding
// to them.
func TestPublishedMetricsMatchStatus(t *testing.T) {
	reg := metrics.NewRegistry()
	EnableMetrics(reg)
	t.Cleanup(func() { EnableMetrics(nil) })
	startEngine(t, nsf(8), Config{}).Provision(Request{ID: 1, Src: 0, Dst: 9})
	e := startEngine(t, nsf(8), Config{Window: 1})
	for id := int64(1); id <= 3; id++ {
		e.Provision(Request{ID: id, Src: 0, Dst: 9})
	}
	e.Teardown(1)
	e.Teardown(99)

	got := map[string]float64{}
	wdmd := 0
	for _, m := range reg.Snapshot() {
		if strings.HasPrefix(m.Name, "wdmd_") {
			wdmd++
		}
		if m.Value != nil {
			got[m.Name] = *m.Value
		}
	}
	if wdmd != 21 {
		t.Fatalf("%d wdmd_* metrics published, want 21 (one per instrument)", wdmd)
	}
	st := e.Status()
	for name, want := range map[string]int64{
		"wdmd_provision_total": st.Provisions,
		"wdmd_accepted_total":  st.Accepted,
		"wdmd_blocked_total":   st.Blocked,
		"wdmd_teardown_total":  st.Teardowns,
		"wdmd_conflicts_total": st.Conflicts,
	} {
		if got[name] != float64(want) {
			t.Errorf("%s = %g, /status says %d", name, got[name], want)
		}
	}
	if st.Provisions != 3 || st.Teardowns != 2 {
		t.Fatalf("status counts the second engine's requests only: %+v", st)
	}
}

func timerSum(t *metrics.Timer) float64 { return t.Hist().Sum() }

// TestStageSumMatchesRequestTime pins the attribution identity the stage
// timers are designed around: every microsecond of wdmd_request_seconds lands
// in exactly one of queue/snapshot/route/commit/reroute, so the five stage
// sums reproduce the end-to-end sum. 5% tolerance absorbs float folding and
// clock granularity; real drift (a stage segment lost or double-counted)
// shows up as tens of percent.
func TestStageSumMatchesRequestTime(t *testing.T) {
	e := startEngine(t, nsf(8), Config{Candidates: 4})
	n := 100000
	if testing.Short() {
		n = 10000
	}
	rep, err := RunSoak(e, LoadConfig{
		Requests:     n,
		Clients:      8,
		Seed:         3,
		RerouteEvery: 25,
		Drain:        true,
	})
	if err != nil {
		t.Fatalf("soak: %v\n%s", err, rep)
	}

	total := timerSum(e.instr.requestTime)
	stages := timerSum(e.instr.stageQueue) + timerSum(e.instr.stageSnapshot) +
		timerSum(e.instr.stageRoute) + timerSum(e.instr.stageCommit) + timerSum(e.instr.stageReroute)
	if total <= 0 {
		t.Fatalf("request timer empty after %d requests", n)
	}
	if drift := math.Abs(stages-total) / total; drift > 0.05 {
		t.Fatalf("stage sums drift %.1f%% from request time: stages %.4fs, total %.4fs",
			drift*100, stages, total)
	}

	// Every request through the pipeline is observed exactly once at both
	// ends of the identity.
	if qc, rc := e.instr.stageQueue.Hist().Count(), e.instr.requestTime.Hist().Count(); qc != rc {
		t.Fatalf("queue count %d != request count %d", qc, rc)
	}
	// The candidate/exact pair partitions the route stage.
	rc := e.instr.stageRoute.Hist().Count()
	cand, exact := e.instr.stageRouteCand.Hist().Count(), e.instr.stageRouteEx.Hist().Count()
	if cand+exact != rc {
		t.Fatalf("route tier split %d+%d != route count %d", cand, exact, rc)
	}
	if cand == 0 {
		t.Fatal("candidate tier never answered with Candidates: 4")
	}
}

// TestRequestIDHeaderJoinsFlight drives a traced provision over HTTP and
// follows the X-Wdmd-Req header into /debug/flight?req=<id> — the exact join
// an operator does when one response comes back slow.
func TestRequestIDHeaderJoinsFlight(t *testing.T) {
	tr := obs.New(obs.Config{Capacity: 64})
	e := startEngine(t, nsf(8), Config{Window: 1, Tracer: tr})
	srv := httptest.NewServer(e.Handler(nil))
	t.Cleanup(srv.Close)

	httpResp, resp := postJSON(t, srv.URL+"/provision", `{"id":1,"src":0,"dst":9}`)
	if !resp.Accepted {
		t.Fatalf("provision rejected: %+v", resp)
	}
	hdr := httpResp.Header.Get("X-Wdmd-Req")
	if resp.Req <= 0 || hdr != strconv.FormatInt(resp.Req, 10) {
		t.Fatalf("response req %d, X-Wdmd-Req %q — header must echo the trace ID", resp.Req, hdr)
	}

	fl, err := http.Get(srv.URL + "/debug/flight?req=" + hdr)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(fl.Body)
	_ = fl.Body.Close()
	if fl.StatusCode != http.StatusOK || len(body) == 0 {
		t.Fatalf("/debug/flight?req=%s = %d %q", hdr, fl.StatusCode, body)
	}
	var rec struct {
		Req int64 `json:"req"`
	}
	if err := json.Unmarshal(body[:len(body)-1], &rec); err != nil || rec.Req != resp.Req {
		t.Fatalf("filtered dump line %q: err %v, req %d want %d", body, err, rec.Req, resp.Req)
	}

	// Bad and missing req= filters answer structured errors, not dumps.
	for q, want := range map[string]int{
		"req=abc":    http.StatusBadRequest,
		"req=-5":     http.StatusBadRequest,
		"req=999999": http.StatusNotFound,
	} {
		r2, err := http.Get(srv.URL + "/debug/flight?" + q)
		if err != nil {
			t.Fatal(err)
		}
		b2, _ := io.ReadAll(r2.Body)
		_ = r2.Body.Close()
		if r2.StatusCode != want {
			t.Fatalf("?%s = %d, want %d", q, r2.StatusCode, want)
		}
		var e2 struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(b2, &e2); err != nil || e2.Error == "" {
			t.Fatalf("?%s body %q is not a JSON error", q, b2)
		}
	}
}

// TestScrapeUnderLoad is the observability race gate: 16 client goroutines
// hammer /provision + /teardown over real HTTP while a scraper loops over
// /debug/slo, /debug/incidents, /debug/timeseries and /status — with a
// deliberately unmeetable SLO attached so the watchdog transitions and the
// capturer fires mid-load. Run under -race in CI.
func TestScrapeUnderLoad(t *testing.T) {
	wd, err := slo.New(
		slo.Objective{Name: "p99", Series: SeriesRequestLatency, Kind: slo.KindP99, Max: 1e-9,
			ShortWindows: 1, LongWindows: 1},
		slo.Objective{Name: "blocking", Series: SeriesBlocking, Kind: slo.KindRatio, Max: 0.9},
	)
	if err != nil {
		t.Fatal(err)
	}
	capt, err := slo.NewCapturer(slo.CaptureConfig{Dir: t.TempDir(), MinInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	e := New(nsf(8), Config{Window: 0.05})
	if err := e.AttachSLO(wd, capt); err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := e.Close(); err != nil {
			t.Errorf("engine close: %v", err)
		}
		capt.Wait()
	})
	srv := httptest.NewServer(e.Handler(nil))
	t.Cleanup(srv.Close)

	stop := make(chan struct{})
	var scrape sync.WaitGroup
	scrape.Add(1)
	go func() {
		defer scrape.Done()
		paths := []string{"/debug/slo", "/debug/incidents", "/debug/timeseries?last=4", "/status"}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get(srv.URL + paths[i%len(paths)])
			if err != nil {
				t.Errorf("scrape %s: %v", paths[i%len(paths)], err)
				return
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("scrape %s = %d", paths[i%len(paths)], resp.StatusCode)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for c := 0; c < 16; c++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			reqs := 150
			if testing.Short() {
				reqs = 40
			}
			for k := 0; k < reqs; k++ {
				id := int64(client)<<32 | int64(k)
				body := fmt.Sprintf(`{"id":%d,"src":%d,"dst":%d}`, id, client%14, (client+7)%14)
				_, resp := postJSON(t, srv.URL+"/provision", body)
				if resp.Accepted {
					postJSON(t, srv.URL+"/teardown", fmt.Sprintf(`{"id":%d}`, id))
				}
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	scrape.Wait()

	// The watchdog state must be scrapeable and well-formed after the storm.
	resp, err := http.Get(srv.URL + "/debug/slo")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	var st slo.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("/debug/slo: %v", err)
	}
	if len(st.Objectives) != 2 {
		t.Fatalf("objectives = %d, want 2 (%+v)", len(st.Objectives), st)
	}
}
