//go:build !race

package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
)

// httpProvisionAllocBudget is the server-side allocation budget of one
// POST /provision plus POST /teardown through the daemon's handler, with no
// registry, telemetry or tracer: the engine round trip of
// provisionAllocBudget plus request decoding, the mux, and response
// encoding. Responses encode through a pooled buffer and encoder and set
// Content-Type from a shared value slice, so encoding adds only what
// encoding/json itself allocates. Measured 22 (six more with a fresh buffer
// and encoder per response); the budget allows two more for runtime drift.
const httpProvisionAllocBudget = 24

// reusableBody is a request body the test rewinds between requests.
type reusableBody struct{ bytes.Reader }

func (*reusableBody) Close() error { return nil }

// sinkWriter is a ResponseWriter that keeps its header map across
// requests and its body buffer by capacity, so the measurement counts only
// the handler's own allocations.
type sinkWriter struct {
	h    http.Header
	code int
	body []byte
}

func (w *sinkWriter) Header() http.Header  { return w.h }
func (w *sinkWriter) WriteHeader(code int) { w.code = code }
func (w *sinkWriter) Write(p []byte) (int, error) {
	w.body = append(w.body, p...)
	return len(p), nil
}

// TestHTTPProvisionHandlerAllocs pins the server side of the HTTP path: the
// handler is driven in process with a reused request and writer, so no
// client, connection or loopback allocation is counted.
func TestHTTPProvisionHandlerAllocs(t *testing.T) {
	e := startEngine(t, nsf(8), Config{})
	h := e.Handler(nil)
	prov := httptest.NewRequest(http.MethodPost, "/provision", nil)
	tear := httptest.NewRequest(http.MethodPost, "/teardown", nil)
	w := &sinkWriter{h: http.Header{}}
	var body reusableBody
	var buf []byte
	var id int64
	serveJSON := func(r *http.Request, prefix string, suffix string) {
		buf = append(strconv.AppendInt(append(buf[:0], prefix...), id, 10), suffix...)
		body.Reset(buf)
		r.Body = &body
		clear(w.h)
		w.code, w.body = http.StatusOK, w.body[:0]
		h.ServeHTTP(w, r)
		if w.code != http.StatusOK || !bytes.Contains(w.body, []byte(`"accepted":true`)) {
			t.Fatalf("%s %d: status %d, body %s", r.URL.Path, id, w.code, w.body)
		}
	}
	run := func() {
		id++
		serveJSON(prov, `{"id":`, `,"src":0,"dst":9}`)
		serveJSON(tear, `{"id":`, `}`)
	}
	for range cap(e.routers) { // warm every pooled router
		run()
	}
	if n := testing.AllocsPerRun(200, run); n > httpProvisionAllocBudget {
		t.Fatalf("POST /provision + /teardown handlers allocate %.0f, budget %d", n, httpProvisionAllocBudget)
	}
}
