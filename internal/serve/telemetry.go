package serve

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/timeseries"
)

// Telemetry series names, as they appear in /debug/timeseries and the
// JSONL/CSV export. They mirror the simulator's series where the semantics
// match, so soak curves from wdmsim and wdmd plot on the same axes; the
// seal-time network gauges (active_conns, link_load_mean, link_load_max,
// frag_mean) come from the shared timeseries probe.
const (
	// SeriesRequestLatency is the end-to-end request latency histogram
	// (seconds, queue + route + commit; p50/p95/p99 per window).
	SeriesRequestLatency = "request_latency_seconds"
	// SeriesBlocking is the per-window blocking probability over provisions.
	SeriesBlocking = "blocking"
	// SeriesAccepted counts provisions accepted per window.
	SeriesAccepted = "accepted"
	// SeriesTeardowns counts teardowns per window.
	SeriesTeardowns = "teardowns"
	// SeriesReroutes counts reroute requests per window.
	SeriesReroutes = "reroutes"
	// SeriesEpochs counts epochs published per window.
	SeriesEpochs = "epochs"
	// SeriesConflicts counts commit-time reservation conflicts per window —
	// the numerator of the SLO conflict-rate objective (denominator:
	// provisions via SeriesBlocking's total).
	SeriesConflicts = "conflicts"

	// Per-window stage-latency histograms, mirroring the wdmd_stage_*
	// timers (see stageNanos for segment boundaries): where inside the
	// pipeline each window's latency went, not just how much there was.
	SeriesStageQueue    = "stage_queue_seconds"
	SeriesStageSnapshot = "stage_snapshot_seconds"
	SeriesStageRoute    = "stage_route_seconds"
	SeriesStageCommit   = "stage_commit_seconds"
	SeriesStageReroute  = "stage_reroute_seconds"
	SeriesStageDecode   = "stage_decode_seconds"

	// Go runtime health, sampled once per window at seal time — the triage
	// context an incident bundle needs next to the latency curves.
	SeriesGoroutines = "go_goroutines"
	SeriesHeapBytes  = "go_heap_bytes"
	SeriesGCPause    = "go_gc_pause_seconds" // GC pause time accrued during the window
)

// telemetry windows the engine's instruments on the wall clock. It owns no
// request-path accumulator: the collector reads the engine's lock-free
// counters and timers when it seals, so request goroutines never touch it.
// A ticker goroutine is the only thing that advances the windows, with the
// seconds elapsed since the telemetry was built, so they seal even when the
// daemon is idle; a sample belongs to the window that is open when the seal
// reads it. The collector-owned gauges are set at seal time (the probes
// below). A nil telemetry (window <= 0) is permanently off.
type telemetry struct {
	col   *timeseries.Collector
	net   *timeseries.NetProbe
	start time.Time // window 0 opens here
	sink  timeseries.FileSink

	stop chan struct{}
	tick sync.WaitGroup
}

// newTelemetry builds the bundle over e's instruments; window <= 0
// disables it (all methods no-op on the nil receiver).
func newTelemetry(e *Engine, window float64) *telemetry {
	if window <= 0 {
		return nil
	}
	col := timeseries.New(window)
	m := &e.instr
	col.Histogram(SeriesRequestLatency, m.requestTime.Hist())
	col.Ratio(SeriesBlocking, &m.blocked, &m.accepted)
	col.Rate(SeriesAccepted, &m.accepted)
	col.Rate(SeriesTeardowns, &m.teardowns)
	col.Rate(SeriesReroutes, &m.reroutes)
	col.Rate(SeriesEpochs, &m.epochs)
	col.Rate(SeriesConflicts, &m.conflicts)
	col.Histogram(SeriesStageQueue, m.stageQueue.Hist())
	col.Histogram(SeriesStageSnapshot, m.stageSnapshot.Hist())
	col.Histogram(SeriesStageRoute, m.stageRoute.Hist())
	col.Histogram(SeriesStageCommit, m.stageCommit.Hist())
	col.Histogram(SeriesStageReroute, m.stageReroute.Hist())
	col.Histogram(SeriesStageDecode, m.stageDecode.Hist())
	t := &telemetry{col: col, start: time.Now(), stop: make(chan struct{})}
	// Seals run on the ticker goroutine, and after it stops on close's final
	// Seal, so the probes are serialized. The network probe reads only the
	// epoch snapshot, pinned while it reads it.
	t.net = col.SampleNetwork(func(at float64) *timeseries.NetState {
		snap := e.store.pin()
		ns := timeseries.ProbeNetwork(snap.net, at, e.LiveConnections())
		snap.unpin()
		ns.Contention = e.topContention(contentionTopK, ns)
		return ns
	})
	// Runtime health: one ReadMemStats per window is cheap (µs-scale
	// stop-the-world) and gives incident bundles their triage context.
	// Baseline the GC-pause accumulator so the first window reports pauses
	// accrued during that window, not since process start.
	goroutines, heapBytes, gcPause := col.Gauge(SeriesGoroutines), col.Gauge(SeriesHeapBytes), col.Gauge(SeriesGCPause)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	lastPause := ms.PauseTotalNs // MemStats.PauseTotalNs at the previous seal
	col.OnSeal(func(float64) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		goroutines.Set(float64(runtime.NumGoroutine()))
		heapBytes.Set(float64(ms.HeapAlloc))
		gcPause.Set(float64(ms.PauseTotalNs-lastPause) / 1e9)
		lastPause = ms.PauseTotalNs
	})
	return t
}

// contentionTopK bounds the per-link contention list published in
// NetState.Contention.
const contentionTopK = 8

// setSink attaches a streaming export sink that close closes; call before
// Start.
func (t *telemetry) setSink(s timeseries.FileSink) {
	if t == nil {
		return
	}
	t.sink = s
	t.col.SetSink(s)
}

// collector exposes the underlying collector for /debug/timeseries (nil
// when telemetry is off).
func (t *telemetry) collector() *timeseries.Collector {
	if t == nil {
		return nil
	}
	return t.col
}

// state returns the latest sealed network snapshot for /debug/net.
func (t *telemetry) state() *timeseries.NetState {
	if t == nil {
		return nil
	}
	return t.net.Latest()
}

// startTicker launches the window-advancing goroutine (4 ticks per window,
// so idle periods still seal on time).
func (t *telemetry) startTicker() {
	if t == nil {
		return
	}
	period := time.Duration(t.col.Window() / 4 * float64(time.Second))
	if period < 10*time.Millisecond {
		period = 10 * time.Millisecond
	}
	t.tick.Add(1)
	go func() {
		defer t.tick.Done()
		tk := time.NewTicker(period)
		defer tk.Stop()
		for {
			select {
			case <-t.stop:
				return
			case <-tk.C:
				t.col.Advance(time.Since(t.start).Seconds())
			}
		}
	}()
}

// SetTelemetrySink attaches a streaming export sink (timeseries.CreateFile)
// to the engine's telemetry; Close seals the last window and closes the
// sink. Call before Start. With telemetry disabled it is a no-op and the
// sink stays the caller's to close.
func (e *Engine) SetTelemetrySink(s timeseries.FileSink) {
	e.tel.setSink(s)
}

// Collector exposes the telemetry collector for /debug/timeseries (nil when
// telemetry is disabled).
func (e *Engine) Collector() *timeseries.Collector { return e.tel.collector() }

// NetState returns the latest sealed per-link network snapshot for
// /debug/net (nil before the first seal or when telemetry is disabled).
func (e *Engine) NetState() *timeseries.NetState { return e.tel.state() }

// err reports the first sink error without closing.
func (t *telemetry) err() error {
	if t == nil {
		return nil
	}
	return t.col.SinkErr()
}

// close stops the ticker, seals the final partial window, and closes the
// sink. The first error wins — this is why Engine.Close returns an error
// worth checking.
func (t *telemetry) close() error {
	if t == nil {
		return nil
	}
	close(t.stop)
	t.tick.Wait()
	t.col.Seal()
	err := t.col.SinkErr()
	if t.sink != nil {
		if cerr := t.sink.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}
