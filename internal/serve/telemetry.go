package serve

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/timeseries"
)

// Telemetry series names, as they appear in /debug/timeseries and the
// JSONL/CSV export. They mirror the simulator's series where the semantics
// match, so soak curves from wdmsim and wdmd plot on the same axes.
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
	// SeriesActiveConns gauges the live connection count at each seal.
	SeriesActiveConns = "active_conns"
	// SeriesLinkLoadMean / SeriesLinkLoadMax gauge per-link ρ(e) aggregates
	// at each seal; the max is the network load ρ of Eq. 2.
	SeriesLinkLoadMean = "link_load_mean"
	SeriesLinkLoadMax  = "link_load_max"
	// SeriesFragMean gauges mean first-fit wavelength fragmentation.
	SeriesFragMean = "frag_mean"
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
// A ticker goroutine is the only thing that advances the windows, which
// therefore seal even when the daemon is idle; a sample belongs to the
// window that is open when the seal reads it. The collector-owned gauges are
// set at seal time (the probe below). A nil telemetry (window <= 0) is
// permanently off.
type telemetry struct {
	col *timeseries.Collector

	active   *timeseries.Gauge
	loadMean *timeseries.Gauge
	loadMax  *timeseries.Gauge
	fragMean *timeseries.Gauge

	goroutines *timeseries.Gauge
	heapBytes  *timeseries.Gauge
	gcPause    *timeseries.Gauge
	lastPause  uint64 // MemStats.PauseTotalNs at the previous seal

	netState atomic.Pointer[timeseries.NetState]
	closer   func() error

	stop chan struct{}
	tick sync.WaitGroup
}

// newTelemetry builds the bundle over e's instruments; window <= 0
// disables it (all methods no-op on the nil receiver).
func newTelemetry(e *Engine, window float64) *telemetry {
	if window <= 0 {
		return nil
	}
	col := timeseries.New(timeseries.Config{Window: window, Clock: timeseries.NewWallClock()})
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
	t := &telemetry{
		col:      col,
		active:   col.Gauge(SeriesActiveConns),
		loadMean: col.Gauge(SeriesLinkLoadMean),
		loadMax:  col.Gauge(SeriesLinkLoadMax),
		fragMean: col.Gauge(SeriesFragMean),

		goroutines: col.Gauge(SeriesGoroutines),
		heapBytes:  col.Gauge(SeriesHeapBytes),
		gcPause:    col.Gauge(SeriesGCPause),

		stop: make(chan struct{}),
	}
	// Baseline the GC-pause accumulator so the first window reports pauses
	// accrued during that window, not since process start.
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t.lastPause = ms0.PauseTotalNs
	col.OnSeal(func(at float64) {
		// Seals run on the ticker goroutine, and after it stops on close's
		// final Seal, so they are serialized and t.lastPause needs no
		// atomics. The probe reads only the immutable epoch snapshot.
		ns := timeseries.ProbeNetwork(e.store.load().net, at, e.LiveConnections())
		ns.Contention = e.topContention(contentionTopK, ns)
		t.loadMean.Set(ns.MeanLoad)
		t.loadMax.Set(ns.MaxLoad)
		t.fragMean.Set(ns.MeanFrag)
		t.active.Set(float64(ns.ActiveConns))
		t.netState.Store(ns)

		// Runtime health: one ReadMemStats per window is cheap (µs-scale
		// stop-the-world) and gives incident bundles their triage context.
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		t.goroutines.Set(float64(runtime.NumGoroutine()))
		t.heapBytes.Set(float64(ms.HeapAlloc))
		t.gcPause.Set(float64(ms.PauseTotalNs-t.lastPause) / 1e9)
		t.lastPause = ms.PauseTotalNs
	})
	return t
}

// contentionTopK bounds the per-link contention list published in
// NetState.Contention.
const contentionTopK = 8

// SetSink attaches a streaming export sink plus its closer (e.g. a JSONL
// writer over a file); call before Start.
func (t *telemetry) SetSink(s timeseries.Sink, closer func() error) {
	if t == nil {
		return
	}
	t.closer = closer
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
	return t.netState.Load()
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
				t.col.Tick()
			}
		}
	}()
}

// SetTelemetrySink attaches a streaming export sink (JSONL/CSV over a file)
// plus its closer to the engine's telemetry; call before Start. No-op when
// telemetry is disabled.
func (e *Engine) SetTelemetrySink(s timeseries.Sink, closer func() error) {
	e.tel.SetSink(s, closer)
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
	if t.closer != nil {
		if cerr := t.closer(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}
