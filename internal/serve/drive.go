package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"time"
)

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

// getStatus reads the daemon's GET /status.
func getStatus(hc *http.Client, baseURL string) (Stats, error) {
	httpResp, err := hc.Get(baseURL + "/status")
	if err != nil {
		return Stats{}, err
	}
	defer func() { _ = httpResp.Body.Close() }()
	if httpResp.StatusCode != http.StatusOK {
		return Stats{}, fmt.Errorf("%s/status: HTTP %d", baseURL, httpResp.StatusCode)
	}
	var st Stats
	if err := json.NewDecoder(httpResp.Body).Decode(&st); err != nil {
		return Stats{}, fmt.Errorf("%s/status: %w", baseURL, err)
	}
	return st, nil
}

// Drive hammers a live daemon at baseURL (e.g. "http://localhost:9101")
// over HTTP with cfg.Clients concurrent seeded clients (see clientLoop),
// drawing endpoints from the node count the daemon's GET /status reports.
// It returns an error on any transport failure or non-200 — the smoke
// test's "zero blocked-forever requests" gate is simply that every request
// got a well-formed answer.
func Drive(baseURL string, cfg LoadConfig) (LoadReport, error) {
	hc := &http.Client{Timeout: 30 * time.Second}
	st, err := getStatus(hc, baseURL)
	if err != nil {
		return LoadReport{Mode: "drive"}, err
	}
	if st.Nodes < 2 {
		return LoadReport{Mode: "drive"}, fmt.Errorf("%s/status: %d nodes, want at least 2", baseURL, st.Nodes)
	}
	start := time.Now()
	t := clientLoop{cfg: cfg, nodes: st.Nodes, releaseTail: cfg.Drain}.run(func() caller {
		hc := &http.Client{Timeout: 30 * time.Second}
		return func(op string, req Request) (Response, error) {
			return post(hc, baseURL+"/"+op, req)
		}
	})
	if p := t.firstErr.Load(); p != nil {
		return cfg.report("drive", t, start, Stats{}), *p
	}
	if st, err = getStatus(hc, baseURL); err != nil {
		return cfg.report("drive", t, start, Stats{}), err
	}
	rep := cfg.report("drive", t, start, st)
	rep.Drained = cfg.Drain
	return rep, nil
}
