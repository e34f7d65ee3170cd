// Package app exercises the errcheck-lite rule against the fixture sinks
// and write-path file handles.
package app

import (
	"context"
	"io"
	"os"

	"fix/errcheck/http"
	"fix/errcheck/obs"
	"fix/errcheck/pprof"
	"fix/errcheck/serve"
	"fix/errcheck/timeseries"
)

// DropFlush discards the flush error: finding.
func DropFlush(r *timeseries.JSONL) {
	r.WriteSnapshot(1)
	r.Flush()
}

// DeferClose discards the close error at exit: finding.
func DeferClose(r *timeseries.JSONL) {
	defer r.Close()
	r.WriteSnapshot(2)
}

// Checked propagates the flush error: clean.
func Checked(r *timeseries.JSONL) error {
	r.WriteSnapshot(3)
	return r.Flush()
}

// WriteFile creates a file and drops the close error after writing: finding.
func WriteFile(path string, data []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.Write(data)
	return err
}

// ReadFile only reads, so the deferred close has nothing buffered: clean.
func ReadFile(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf := make([]byte, 8)
	n, err := f.Read(buf)
	if err != nil {
		return nil, err
	}
	return buf[:n], nil
}

// Shutdown drops the close error on a sink that was already flushed; the
// directive records why that is safe.
func Shutdown(r *timeseries.JSONL) {
	if err := r.Flush(); err != nil {
		return
	}
	r.Close() //wdmlint:ignore errcheck-lite already flushed, close only releases the sink
}

// BadDirective carries an ignore comment with no reason: the directive is
// rejected and the finding stays.
func BadDirective(r *timeseries.JSONL) {
	r.Flush() //wdmlint:ignore errcheck-lite
}

// DropDump discards the flight-recorder dump error: finding.
func DropDump(f *obs.Flight, w io.Writer) {
	f.Add(1)
	f.Dump(w)
}

// DropDumpFile discards the dump-to-file error in a goroutine: finding.
func DropDumpFile(f *obs.Flight) {
	go f.DumpFile("/tmp/flight.jsonl")
}

// CheckedDump propagates the dump error: clean.
func CheckedDump(f *obs.Flight, w io.Writer) error {
	f.Add(2)
	return f.Dump(w)
}

// DropSinkFlush discards the telemetry sink flush error: finding.
func DropSinkFlush(s *timeseries.JSONL) {
	s.WriteSnapshot(1)
	s.Flush()
}

// DeferSinkClose discards the sink close error at exit: finding.
func DeferSinkClose(s *timeseries.JSONL) {
	defer s.Close()
	s.WriteSnapshot(2)
}

// CheckedSink propagates the close error: clean.
func CheckedSink(s *timeseries.JSONL) error {
	s.WriteSnapshot(3)
	return s.Close()
}

// DropShutdown discards the graceful-drain verdict: finding.
func DropShutdown(srv *http.Server, ctx context.Context) {
	srv.Shutdown(ctx)
}

// DeferShutdown discards it at exit: finding.
func DeferShutdown(srv *http.Server, ctx context.Context) error {
	defer srv.Shutdown(ctx)
	return srv.ListenAndServe()
}

// CheckedShutdown propagates the drain verdict: clean.
func CheckedShutdown(srv *http.Server, ctx context.Context) error {
	return srv.Shutdown(ctx)
}

// DropProfileStart discards the CPU-profile start verdict: finding.
func DropProfileStart(w io.Writer) {
	pprof.StartCPUProfile(w)
	defer pprof.StopCPUProfile()
}

// DropHeapProfile discards the heap-profile write error: finding.
func DropHeapProfile(w io.Writer) {
	pprof.WriteHeapProfile(w)
}

// CheckedProfileStart propagates the start verdict: clean.
func CheckedProfileStart(w io.Writer) error {
	if err := pprof.StartCPUProfile(w); err != nil {
		return err
	}
	defer pprof.StopCPUProfile()
	return pprof.WriteHeapProfile(w)
}

// DropEngineClose discards the engine's first sink error: finding.
func DropEngineClose(e *serve.Engine) {
	e.Close()
}

// CheckedEngineClose propagates it: clean.
func CheckedEngineClose(e *serve.Engine) error {
	if err := e.Start(); err != nil {
		return err
	}
	return e.Close()
}
