package cli

import (
	"fmt"
	"io"
	"net/http"
	"runtime/pprof"
	"runtime/trace"
	"strings"
	"time"
)

// servePprof answers /debug/pprof/ and below from runtime/pprof and
// runtime/trace:
//
//	/debug/pprof/                    index of the profiles
//	/debug/pprof/<name>?debug=N      a named profile (heap, goroutine, …);
//	                                 N=0 is the binary format, N>0 text
//	/debug/pprof/profile?seconds=N   CPU profile over N seconds (default 30)
//	/debug/pprof/trace?seconds=N     execution trace over N seconds (default 1)
//
// These are the handlers net/http/pprof provides, minus cmdline and symbol
// (profiles carry their own symbols). That package is not imported because
// its init registers its handlers on http.DefaultServeMux in every binary
// that links it.
func servePprof(w http.ResponseWriter, r *http.Request) {
	switch name := strings.TrimPrefix(r.URL.Path, "/debug/pprof/"); name {
	case "":
		pprofIndex(w)
	case "profile":
		pprofCapture(w, r, 30, "profile", pprof.StartCPUProfile, pprof.StopCPUProfile)
	case "trace":
		pprofCapture(w, r, 1, "trace", trace.Start, trace.Stop)
	default:
		p := pprof.Lookup(name)
		if p == nil {
			jsonError(w, http.StatusNotFound, fmt.Sprintf("unknown profile %q", name))
			return
		}
		debug, ok := queryInt(w, r, "debug", 0)
		if !ok {
			return
		}
		if debug > 0 {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		} else {
			setAttachment(w, name)
		}
		// Once the profile is streaming the status is committed; a write
		// error means the client went away.
		_ = p.WriteTo(w, debug)
	}
}

// pprofIndex lists the named profiles with their current counts, then the
// two timed captures.
func pprofIndex(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	for _, p := range pprof.Profiles() {
		fmt.Fprintf(w, "%-14s %6d  /debug/pprof/%s?debug=1\n", p.Name(), p.Count(), p.Name())
	}
	fmt.Fprintln(w, "profile                CPU profile: /debug/pprof/profile?seconds=30")
	fmt.Fprintln(w, "trace                  execution trace: /debug/pprof/trace?seconds=1")
}

// pprofCapture runs a timed capture (CPU profile or execution trace) into the
// response for ?seconds=N, or def seconds, cut short if the client leaves.
func pprofCapture(w http.ResponseWriter, r *http.Request, def int, name string, start func(io.Writer) error, stop func()) {
	sec, ok := queryInt(w, r, "seconds", def)
	if !ok {
		return
	}
	setAttachment(w, name)
	if err := start(w); err != nil {
		// Another capture of this kind is running; nothing was written yet.
		w.Header().Del("Content-Disposition")
		jsonError(w, http.StatusInternalServerError, fmt.Sprintf("could not start %s: %v", name, err))
		return
	}
	t := time.NewTimer(time.Duration(sec) * time.Second)
	select {
	case <-t.C:
	case <-r.Context().Done():
		t.Stop()
	}
	stop()
}

// setAttachment marks the response as a binary download named name.
func setAttachment(w http.ResponseWriter, name string) {
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", name))
}
