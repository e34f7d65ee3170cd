package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"time"
)

// DriveConfig parameterises Drive, the HTTP client-side load generator
// behind `wdmd -drive` (the CI smoke drives a live daemon through its real
// HTTP surface, exercising the JSON encode/decode path end to end).
type DriveConfig struct {
	// Requests is the total operation count across all clients.
	Requests int
	// Clients is the number of concurrent HTTP clients (16 if 0).
	Clients int
	// Seed makes the workload deterministic per client (Seed + client).
	Seed int64
	// MaxLive caps each client's live connections (32 if 0).
	MaxLive int
	// Nodes is the served network's node count (for endpoint draws).
	Nodes int
}

func (c *DriveConfig) clients() int {
	if c.Clients > 0 {
		return c.Clients
	}
	return 16
}

func (c *DriveConfig) maxLive() int {
	if c.MaxLive > 0 {
		return c.MaxLive
	}
	return 32
}

// DriveReport aggregates one HTTP drive run.
type DriveReport struct {
	Requests   int     `json:"requests"`
	Clients    int     `json:"clients"`
	Provisions int64   `json:"provisions"`
	Accepted   int64   `json:"accepted"`
	Blocked    int64   `json:"blocked"`
	Teardowns  int64   `json:"teardowns"`
	Errors     int64   `json:"errors"`
	Blocking   float64 `json:"blocking_probability"`
	P50Micros  float64 `json:"p50_us"`
	P99Micros  float64 `json:"p99_us"`
	Elapsed    float64 `json:"elapsed_seconds"`
}

func (r DriveReport) String() string {
	return fmt.Sprintf(
		"drive: %d requests, %d clients: %d provisions (%d accepted, %d blocked, blocking %.4f), "+
			"%d teardowns, %d transport errors, p50 %.1fµs p99 %.1fµs over %.2fs",
		r.Requests, r.Clients, r.Provisions, r.Accepted, r.Blocked, r.Blocking,
		r.Teardowns, r.Errors, r.P50Micros, r.P99Micros, r.Elapsed)
}

// post sends one JSON request and decodes the daemon's response.
func post(hc *http.Client, url string, req Request) (Response, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return Response{}, err
	}
	httpResp, err := hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return Response{}, err
	}
	defer func() { _ = httpResp.Body.Close() }()
	if httpResp.StatusCode != http.StatusOK {
		return Response{}, fmt.Errorf("%s: HTTP %d", url, httpResp.StatusCode)
	}
	var resp Response
	if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
		return Response{}, err
	}
	return resp, nil
}

// Drive hammers a live daemon at baseURL (e.g. "http://localhost:9101")
// over HTTP with cfg.Clients concurrent seeded clients (see clientLoop,
// without reroutes), then tears down every connection it still owns. It
// returns an error on any transport failure or non-200 — the smoke test's
// "zero blocked-forever requests" gate is simply that every request got a
// well-formed answer.
func Drive(baseURL string, cfg DriveConfig) (DriveReport, error) {
	start := time.Now()
	t := clientLoop{
		requests:     cfg.Requests,
		clients:      cfg.clients(),
		seed:         cfg.Seed,
		nodes:        cfg.Nodes,
		maxLive:      cfg.maxLive(),
		teardownFrac: 0.45,
		releaseTail:  true,
	}.run(func() caller {
		hc := &http.Client{Timeout: 30 * time.Second}
		return func(op string, req Request) (Response, error) {
			return post(hc, baseURL+"/"+op, req)
		}
	})

	rep := DriveReport{
		Requests:   cfg.Requests,
		Clients:    cfg.clients(),
		Provisions: t.prov.Load(),
		Accepted:   t.acc.Load(),
		Blocked:    t.blocked.Load(),
		Teardowns:  t.tears.Load(),
		Errors:     t.errs.Load(),
		Blocking:   t.blocking(),
		P50Micros:  t.lat.Quantile(0.50) * 1e6,
		P99Micros:  t.lat.Quantile(0.99) * 1e6,
		Elapsed:    time.Since(start).Seconds(),
	}
	if p := t.firstErr.Load(); p != nil {
		return rep, *p
	}
	return rep, nil
}
