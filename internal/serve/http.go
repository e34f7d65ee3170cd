package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/cli"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/wdm"
)

// Request is the JSON body of POST /provision. Teardown and reroute take
// only the ID (src/dst/algo ignored).
type Request struct {
	ID  int64 `json:"id"`
	Src int   `json:"src"`
	Dst int   `json:"dst"`
	// Algo optionally overrides the daemon's default routing discipline for
	// this request: min-cost, min-load, min-load-cost or two-step.
	Algo string `json:"algo,omitempty"`
}

// HopOut is one semilightpath hop in a JSON response or journal entry.
type HopOut struct {
	Link   int `json:"link"`
	Lambda int `json:"lambda"`
}

// Response is the JSON body every request endpoint returns. Domain
// rejections (no route, conflict, unknown connection) are HTTP 200 with
// Accepted=false and a Reason — only malformed requests get a 4xx.
type Response struct {
	ID       int64   `json:"id"`
	Op       string  `json:"op"`
	Accepted bool    `json:"accepted"`
	Reason   string  `json:"reason,omitempty"`
	Detail   string  `json:"detail,omitempty"`
	Cost     float64 `json:"cost,omitempty"`
	PathLoad float64 `json:"path_load,omitempty"`
	Epoch    uint64  `json:"epoch"`
	Retries  int     `json:"retries,omitempty"`
	// Req is the flight-recorder request ID of the routing trace behind this
	// response (0 when tracing is off). The HTTP layer echoes it as the
	// X-Wdmd-Req header, so a slow response joins to its spans via
	// /debug/flight?req=<id> or /debug/explain/<id>.
	Req     int64    `json:"req,omitempty"`
	Primary []HopOut `json:"primary,omitempty"`
	Backup  []HopOut `json:"backup,omitempty"`
}

func rejectResponse(id int64, op, reason, detail string) Response {
	return Response{ID: id, Op: op, Accepted: false, Reason: reason, Detail: detail}
}

func hopsJSON(hops []wdm.Hop) []HopOut {
	if len(hops) == 0 {
		return nil
	}
	out := make([]HopOut, len(hops))
	for i, h := range hops {
		out[i] = HopOut{Link: h.Link, Lambda: h.Wavelength}
	}
	return out
}

// maxBodyBytes bounds request bodies; routing requests are tiny.
const maxBodyBytes = 1 << 16

// DecodeRequest parses one JSON request body strictly: unknown fields,
// trailing garbage, and non-object payloads are errors. It is the fuzz
// target of FuzzRequestDecode — it must never panic, whatever the bytes.
func DecodeRequest(r io.Reader) (Request, error) {
	var req Request
	dec := json.NewDecoder(io.LimitReader(r, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return Request{}, fmt.Errorf("decode request: %w", err)
	}
	// Reject trailing tokens ("{}{}", "{} junk") — one request per body.
	if _, err := dec.Token(); err != io.EOF {
		return Request{}, fmt.Errorf("decode request: trailing data after JSON object")
	}
	return req, nil
}

// Handler builds the daemon's HTTP API on top of the shared debug mux, so
// wdmd exposes /healthz, /metrics, /debug/timeseries, /debug/net,
// /debug/flight and /debug/pprof/* exactly like wdmsim -serve, plus:
//
//	POST /provision  {"id": 7, "src": 0, "dst": 3, "algo": "min-load-cost"}
//	POST /teardown   {"id": 7}
//	POST /reroute    {"id": 7}
//	GET  /status     daemon aggregate state (epoch, blocking, conflicts…)
//
// reg is the registry backing /metrics (nil disables it); pass the same
// registry given to EnableMetrics.
func (e *Engine) Handler(reg *metrics.Registry) *http.ServeMux {
	var fr *obs.FlightRecorder
	if e.cfg.Tracer != nil {
		fr = e.cfg.Tracer.Flight()
	}
	mux := cli.DebugMux(cli.DebugOpts{
		Metrics:   reg,
		Flight:    fr,
		Series:    e.Collector(),
		NetState:  e.NetState,
		SLO:       e.watchdog,
		Incidents: e.incidents,
	})
	mux.HandleFunc("POST /provision", func(w http.ResponseWriter, r *http.Request) {
		req, ok := e.decodeTimed(w, r)
		if !ok {
			return
		}
		writeResponse(w, e.Provision(req))
	})
	mux.HandleFunc("POST /teardown", func(w http.ResponseWriter, r *http.Request) {
		req, ok := e.decodeTimed(w, r)
		if !ok {
			return
		}
		writeResponse(w, e.Teardown(req.ID))
	})
	mux.HandleFunc("POST /reroute", func(w http.ResponseWriter, r *http.Request) {
		req, ok := e.decodeTimed(w, r)
		if !ok {
			return
		}
		writeResponse(w, e.Reroute(req.ID))
	})
	mux.HandleFunc("GET /status", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, e.Status())
	})
	return mux
}

// decodeTimed parses one request body, timing the decode into the
// wdmd_stage_decode_seconds timer (which the stage_decode_seconds window
// reads) — decode happens before the request clock starts, so it is
// reported as HTTP overhead alongside (not inside) the pipeline stages. On
// a parse error it writes the 400 and reports ok=false.
func (e *Engine) decodeTimed(w http.ResponseWriter, r *http.Request) (Request, bool) {
	t := time.Now()
	req, err := DecodeRequest(r.Body)
	e.instr.stageDecode.Observe(time.Since(t))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return Request{}, false
	}
	return req, true
}

// writeResponse writes a pipeline Response compactly (one line plus the
// trailing newline), echoing its flight-recorder request ID (when traced)
// as the X-Wdmd-Req header so callers can join the HTTP exchange to
// /debug/flight?req=<id> without parsing the body.
func writeResponse(w http.ResponseWriter, resp Response) {
	if resp.Req > 0 {
		w.Header().Set("X-Wdmd-Req", strconv.FormatInt(resp.Req, 10))
	}
	encodeJSON(w, resp, "")
}

// writeJSON writes v indented, one field per line, for people and
// line-oriented tools reading /status.
func writeJSON(w http.ResponseWriter, v any) { encodeJSON(w, v, "  ") }

// jsonEncoder is a response buffer with its encoder, pooled across
// responses so encoding allocates neither.
type jsonEncoder struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var jsonEncoders = sync.Pool{New: func() any {
	je := &jsonEncoder{}
	je.enc = json.NewEncoder(&je.buf)
	return je
}}

// jsonContentType is the shared Content-Type header value of every JSON
// response (net/http never mutates header value slices in place).
var jsonContentType = []string{"application/json"}

// encodeJSON encodes v into a buffer first so an encoding failure can still
// change the status code (nothing committed to the wire yet).
func encodeJSON(w http.ResponseWriter, v any, indent string) {
	je := jsonEncoders.Get().(*jsonEncoder)
	je.buf.Reset()
	je.enc.SetIndent("", indent)
	if err := je.enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	} else {
		w.Header()["Content-Type"] = jsonContentType
		_, _ = w.Write(je.buf.Bytes())
	}
	jsonEncoders.Put(je)
}
