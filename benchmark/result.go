package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"time"
)

// Value is one reported number with its unit.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the last line a workload run prints.
type Result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}

// outcome is what a workload measured, before it is turned into metrics.
type outcome struct {
	setupS float64 // median set-up time, at the reference host speed

	// The timed phase is a run of windows (timeWindows); throughput and
	// latency quantiles are medians over windows, so a transient stall of
	// the host moves one window, not the result.
	windows  []window
	offered  bool // the workload's rate is set by its schedule, not its speed
	timedOps int64
	timedFor time.Duration // summed length of the windows
	workers  int           // goroutines issuing the timed ops
	busy     time.Duration // summed time the workers spent inside timed ops
	rss      rssSampler

	provisions, blocked, accepted int64
	costSum                       float64

	attempted, failed int64
	firstFailure      string // what the first failed operation answered
	violations        []string

	run runStats // runtime counters over the timed phase

	// Traced runs only.
	layers map[string]float64 // per-layer metrics
	ledger map[string]float64 // workload-specific rows for layers.json
}

func (o *outcome) violate(format string, args ...any) {
	o.violations = append(o.violations, fmt.Sprintf(format, args...))
}

func (o *outcome) noteFailure(why string) {
	if o.firstFailure == "" {
		o.firstFailure = why
	}
}

// merge folds a client's counters into o.
func (o *outcome) merge(p *outcome) {
	o.timedOps += p.timedOps
	o.busy += p.busy
	o.provisions += p.provisions
	o.blocked += p.blocked
	o.accepted += p.accepted
	o.costSum += p.costSum
	o.attempted += p.attempted
	o.failed += p.failed
	o.noteFailure(p.firstFailure)
	o.violations = append(o.violations, p.violations...)
}

// countProvision folds one timed provision answer into the quality counters.
func (o *outcome) countProvision(accepted bool, cost float64) {
	o.provisions++
	if accepted {
		o.accepted++
		o.costSum += cost
	} else {
		o.blocked++
	}
}

// endToEndMetrics turns an untraced outcome into the declared metrics. Each
// window's times and rate are stated at the reference host speed measured
// around it. An offered workload's are reported as measured: its rate is
// set by its schedule, and at a fraction of capacity its latency is mostly
// waiting and waking up rather than computing, which the probe's speed does
// not describe: beside a process that took one core for 1.5 s in every 3,
// four http-open runs read about 480-540 µs unscaled and 237-345 µs scaled,
// as the probes happened to fall in the busy or the idle part.
func (o *outcome) endToEndMetrics() (map[string]float64, error) {
	if o.timedOps == 0 || o.provisions == 0 || o.accepted == 0 {
		return nil, fmt.Errorf("timed phase too short: %d ops, %d provisions, %d accepted", o.timedOps, o.provisions, o.accepted)
	}
	var rate, p50, p99, p999, speed []float64
	for i := range o.windows {
		w := &o.windows[i]
		if w.n == 0 {
			continue
		}
		scale := w.speed
		if o.offered {
			scale = 1
		}
		rate = append(rate, float64(w.n)/w.dur.Seconds()/scale)
		p50 = append(p50, w.p50*scale)
		p99 = append(p99, w.p99*scale)
		p999 = append(p999, w.p999*scale)
		speed = append(speed, w.speed)
	}
	m := map[string]float64{
		"setup_s":         o.setupS,
		"ops_per_s":       median(rate),
		"latency_p50_us":  median(p50),
		"latency_p99_us":  median(p99),
		"latency_p999_us": median(p999),
		"acceptance":      float64(o.accepted) / float64(o.provisions),
		"cost_mean":       o.costSum / float64(o.accepted),
		"rss_mb":          o.rss.medianMB(),
		"host_speed":      median(speed),
	}
	return m, nil
}

// window is one slice of the timed phase.
type window struct {
	lat   latencies // latency of every op in the window, until sealed
	dur   time.Duration
	speed float64 // host speed measured by the probes on either side

	// Set by seal: the op count and exact quantiles, in microseconds.
	n              int
	p50, p99, p999 float64
}

// seal computes the window's quantiles and releases its samples.
func (w *window) seal() {
	s := w.lat.sorted()
	w.n, w.lat = len(s), latencies{}
	if w.n > 0 {
		w.p50, w.p99, w.p999 = nearestRank(s, 0.50)/1e3, nearestRank(s, 0.99)/1e3, nearestRank(s, 0.999)/1e3
	}
}

// windowLen is the target length of one window: long enough that the
// slowest gated workload, http-closed, puts ten samples beyond its p99.9 in
// each (the diagnostic http-open, at about 1,900 operations/s, puts six).
const windowLen = 3500 * time.Millisecond

// timeWindows runs a timed phase of length d as windows of about windowLen.
// run does window i's work for the given length and returns when none of it
// is in flight. The host's speed is probed, on as many cores as o has
// workers, before the first window and after each, so each window is scaled
// by the host's speed around it.
func (o *outcome) timeWindows(d time.Duration, run func(i int, w *window, length time.Duration)) {
	n := max(1, int(d/windowLen))
	o.windows = make([]window, n)
	before := probeHost(o.workers)
	for i := range o.windows {
		w := &o.windows[i]
		t0 := time.Now()
		run(i, w, d/time.Duration(n))
		w.dur = time.Since(t0)
		o.timedFor += w.dur
		after := probeHost(o.workers)
		w.speed = hostSpeed(slices.Concat(before, after))
		w.seal()
		before = after
	}
}

// runStats are process-wide runtime counters, read before and after the
// timed phase.
type runStats struct {
	mallocs, bytes uint64
	gcCPU, allCPU  float64
}

func readRunStats() runStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return runStats{mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gcCPU: s[0].Value.Float64(), allCPU: s[1].Value.Float64()}
}

// delta returns the per-op runtime metrics between two readings.
func (a runStats) delta(b runStats, ops int64) map[string]float64 {
	frac := 0.0
	if cpu := b.allCPU - a.allCPU; cpu > 0 {
		frac = (b.gcCPU - a.gcCPU) / cpu
	}
	return map[string]float64{
		"runtime.allocs_per_op": float64(b.mallocs-a.mallocs) / float64(ops),
		"runtime.bytes_per_op":  float64(b.bytes-a.bytes) / float64(ops),
		"runtime.gc_cpu_frac":   frac,
	}
}

// addRunLayers adds the per-layer metrics a traced run derives from its own
// timed phase: runtime counters per op, and the load generator's cycle gap.
func (o *outcome) addRunLayers(after runStats) {
	for k, v := range o.run.delta(after, o.timedOps) {
		o.layers[k] = v
	}
	// Little's law: the workers have workers·timedFor/ops of wall time per
	// op; the part they did not spend inside an op is time the generator
	// spent between ops. It should be close to zero for a closed loop, and
	// is the senders' idle time in the open loop.
	o.layers["loadgen.cycle_gap_us"] = us(time.Duration(o.workers)*o.timedFor-o.busy) / float64(o.timedOps)
}

// rssSampler reads the process's resident set size every rssEvery while
// running. Its median over the timed phase is the reported memory footprint:
// the peak of a garbage-collected heap depends on where its collections
// happened to fall, and repeats far less well.
type rssSampler struct {
	samples []float64 // MB
	stop    chan struct{}
	done    chan struct{}
}

const rssEvery = 100 * time.Millisecond

func (r *rssSampler) start() {
	r.stop, r.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(r.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			r.sample()
			select {
			case <-t.C:
			case <-r.stop:
				return
			}
		}
	}()
}

// finish stops the sampler after one last sample and waits for it.
func (r *rssSampler) finish() {
	close(r.stop)
	<-r.done
	r.sample()
}

func (r *rssSampler) sample() {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return // no procfs: medianMB reports NaN and the run fails loudly
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return
	}
	r.samples = append(r.samples, pages*float64(os.Getpagesize())/(1<<20))
}

func (r *rssSampler) medianMB() float64 { return median(r.samples) }

// buildResult assembles the printed result from a finished outcome, plus
// the diagnostics of an untraced run. A failed operation makes the run
// incorrect: the workloads are chosen so that none fails, and an answer that
// fails fast must not read as a speed-up.
func buildResult(o *outcome, traced bool) (Result, map[string]Value, error) {
	if o.failed > 0 {
		o.violate("%d of %d operations failed; first: %s", o.failed, o.attempted, o.firstFailure)
	}
	res := Result{Correct: len(o.violations) == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]Value{}}
	if res.Attempted < 1 {
		return res, nil, fmt.Errorf("no operation attempted")
	}
	diag := map[string]Value{}
	pick := func(m map[string]float64, name string, into map[string]Value) error {
		v, ok := m[name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s not measured (value %v)", name, v)
		}
		into[name] = Value{Value: v, Unit: unitOf(name)}
		return nil
	}
	if traced {
		for _, pl := range perLayer {
			if err := pick(o.layers, pl.Name, res.Metrics); err != nil {
				return res, nil, err
			}
		}
		return res, diag, nil
	}
	m, err := o.endToEndMetrics()
	if err != nil {
		return res, nil, err
	}
	for _, e := range endToEnd {
		if err := pick(m, e.Name, res.Metrics); err != nil {
			return res, nil, err
		}
	}
	for _, d := range diagnostics {
		if err := pick(m, d.Name, diag); err != nil {
			return res, nil, err
		}
	}
	return res, diag, nil
}

// printLines prints metrics as "workload metric value unit", in
// declaration order.
func printLines(workload string, values map[string]Value) {
	for _, m := range declared() {
		if v, ok := values[m.name]; ok {
			fmt.Printf("%s %s %s %s\n", workload, m.name, strconv.FormatFloat(v.Value, 'g', -1, 64), v.Unit)
		}
	}
}
