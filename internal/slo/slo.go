// Package slo turns the daemon's sealed telemetry windows into service-level
// objectives with multi-window burn-rate alerting, and captures forensic
// incident bundles when an objective starts burning.
//
// The design follows the standard burn-rate recipe: each objective declares a
// ceiling (Max) for one telemetry series; every sealed window contributes a
// burn sample value/Max; the watchdog keeps a short and a long trailing mean
// of those samples and reports
//
//	burning  — short mean ≥ 2 AND long mean ≥ 1
//	          (fast enough to page, slow enough not to flap on one window)
//	warning  — either mean ≥ 1 but not burning
//	healthy  — otherwise
//
// Everything is driven by Collector seals, so the watchdog inherits whatever
// time axis the collector's owner advances it on — wall-clock in wdmd,
// sim-time in wdmsim — and burn windows are deterministic under direct
// Advance calls.
package slo

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/metrics"
	"repro/internal/timeseries"
)

// Kind selects how an objective reads its value out of a sealed window.
type Kind int

const (
	// KindP99 reads the window's p99 of a histogram series (e.g. request
	// latency). An empty window (no samples) burns 0 — no traffic, no burn.
	KindP99 Kind = iota
	// KindRatio reads a guarded num/den ratio series (e.g. blocking
	// probability). A zero-denominator window burns 0.
	KindRatio
	// KindRate reads a counter series as events per clock second (e.g.
	// commit-conflict rate).
	KindRate
	// KindStaleness measures how many consecutive seconds the counter series
	// has been zero — e.g. epoch-publish staleness: a daemon whose committer
	// stopped publishing epochs has a stuck data path even if requests
	// (all rejected) still flow.
	KindStaleness
)

func (k Kind) String() string {
	switch k {
	case KindP99:
		return "p99"
	case KindRatio:
		return "ratio"
	case KindRate:
		return "rate"
	case KindStaleness:
		return "staleness"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Objective is one declarative SLO over a telemetry series.
type Objective struct {
	// Name identifies the objective in /debug/slo, gauges and bundles.
	Name string
	// Series is the telemetry series the objective reads (histogram name for
	// KindP99, ratio for KindRatio, rate counter for KindRate/KindStaleness).
	Series string
	Kind   Kind
	// Max is the objective ceiling in the value's own unit (seconds for
	// KindP99/KindStaleness, a probability for KindRatio, events/second for
	// KindRate). A window burns value/Max; Max must be > 0.
	Max float64

	// ShortWindows and LongWindows size the two trailing burn means
	// (defaults 3 and 12 sealed windows). Short reacts, long confirms.
	ShortWindows int
	LongWindows  int
}

// The burn thresholds on the two trailing means: the short window must be
// at twice budget AND the long window at budget before an objective pages;
// either mean at budget warns.
const (
	shortBurn = 2
	longBurn  = 1
	warnBurn  = 1
)

func (o *Objective) shortWindows() int {
	if o.ShortWindows > 0 {
		return o.ShortWindows
	}
	return 3
}

func (o *Objective) longWindows() int {
	n := 12
	if o.LongWindows > 0 {
		n = o.LongWindows
	}
	if s := o.shortWindows(); n < s {
		n = s
	}
	return n
}

// State is an objective's alert state.
type State int

const (
	Healthy State = iota
	Warning
	Burning
)

func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Warning:
		return "warning"
	case Burning:
		return "burning"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Breach describes one transition into Burning — the payload handed to
// OnBreach callbacks (and from there to the incident Capturer).
type Breach struct {
	Objective string  `json:"objective"`
	Series    string  `json:"series"`
	At        float64 `json:"at"` // collector-clock end of the breaching window
	Value     float64 `json:"value"`
	Max       float64 `json:"max"`
	ShortBurn float64 `json:"short_burn"`
	LongBurn  float64 `json:"long_burn"`
}

// objState is one objective plus its burn-sample ring and alert state.
type objState struct {
	obj   Objective
	ring  []float64 // trailing burn samples, ring of longWindows
	n     int       // samples seen (≤ cap grows to len(ring))
	next  int       // next ring write position
	state State

	value      float64 // latest window's value
	shortMean  float64
	longMean   float64
	staleSecs  float64 // KindStaleness accumulator
	breaches   int64
	lastChange float64

	stateGauge *metrics.Gauge
	burnGauge  *metrics.Gauge
}

// Watchdog evaluates a set of objectives over sealed telemetry windows.
// Create with New, attach with Bind (or feed snapshots directly via Observe),
// read with Status, subscribe with OnBreach.
type Watchdog struct {
	mu       sync.Mutex
	objs     []*objState
	onBreach []func(Breach)
	windows  uint64
	lastSeal float64
}

// New builds a watchdog over the given objectives. Objectives with Max <= 0
// or an empty Series are rejected.
func New(objs ...Objective) (*Watchdog, error) {
	w := &Watchdog{}
	for _, o := range objs {
		if o.Name == "" {
			o.Name = o.Series
		}
		if o.Series == "" {
			return nil, fmt.Errorf("slo: objective %q has no series", o.Name)
		}
		if o.Max <= 0 {
			return nil, fmt.Errorf("slo: objective %q needs Max > 0, got %g", o.Name, o.Max)
		}
		w.objs = append(w.objs, &objState{
			obj:  o,
			ring: make([]float64, o.longWindows()),
		})
	}
	return w, nil
}

// Bind subscribes the watchdog to the collector's sealed windows. Call once,
// before the collector starts sealing.
func (w *Watchdog) Bind(col *timeseries.Collector) {
	if w == nil || col == nil {
		return
	}
	col.OnSealed(w.Observe)
}

// OnBreach registers a callback fired on every transition into Burning. The
// callback runs on the sealing goroutine with the watchdog unlocked — do
// heavy work (incident capture) asynchronously.
func (w *Watchdog) OnBreach(fn func(Breach)) {
	if w == nil || fn == nil {
		return
	}
	w.mu.Lock()
	w.onBreach = append(w.onBreach, fn)
	w.mu.Unlock()
}

// EnableMetrics builds per-objective state and burn gauges and publishes
// them on reg: slo_<name>_state (0 healthy / 1 warning / 2 burning) and
// slo_<name>_burn (the short-window burn mean).
func (w *Watchdog) EnableMetrics(reg *metrics.Registry) {
	if w == nil || reg == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, os := range w.objs {
		base := "slo_" + sanitizeMetric(os.obj.Name)
		os.stateGauge, os.burnGauge = &metrics.Gauge{}, &metrics.Gauge{}
		reg.Publish(base+"_state", "SLO state of "+os.obj.Name+" (0 healthy, 1 warning, 2 burning)", os.stateGauge)
		reg.Publish(base+"_burn", "short-window burn-rate mean of "+os.obj.Name, os.burnGauge)
	}
}

// sanitizeMetric maps an objective name onto the prometheus-safe charset.
func sanitizeMetric(s string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(s) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// Observe folds one sealed window into every objective — the OnSealed hook.
// It is safe for concurrent use, though seals are naturally serialized by the
// collector's owner.
//
//wdm:coldpath runs once per sealed telemetry window (seconds apart), not per request; breach capture is rarer still
func (w *Watchdog) Observe(s *timeseries.Snapshot) {
	if w == nil || s == nil {
		return
	}
	w.mu.Lock()
	w.windows++
	w.lastSeal = s.End
	var fired []Breach
	for _, os := range w.objs {
		if b, breached := os.observe(s); breached {
			fired = append(fired, b)
		}
	}
	callbacks := w.onBreach
	w.mu.Unlock()
	for _, b := range fired {
		for _, fn := range callbacks {
			fn(b)
		}
	}
}

// observe evaluates one objective against one sealed window; the caller
// holds the watchdog lock. It reports a Breach on a transition into Burning.
func (os *objState) observe(s *timeseries.Snapshot) (Breach, bool) {
	os.value = os.extract(s)
	burn := os.value / os.obj.Max

	os.ring[os.next] = burn
	os.next = (os.next + 1) % len(os.ring)
	if os.n < len(os.ring) {
		os.n++
	}

	short := os.obj.shortWindows()
	if short > os.n {
		short = os.n
	}
	var shortSum, longSum float64
	for i := 0; i < os.n; i++ {
		// Walk backwards from the latest sample.
		v := os.ring[(os.next-1-i+len(os.ring))%len(os.ring)]
		longSum += v
		if i < short {
			shortSum += v
		}
	}
	os.shortMean = shortSum / float64(short)
	os.longMean = longSum / float64(os.n)

	prev := os.state
	switch {
	case os.shortMean >= shortBurn && os.longMean >= longBurn:
		os.state = Burning
	case os.shortMean >= warnBurn || os.longMean >= warnBurn:
		os.state = Warning
	default:
		os.state = Healthy
	}
	if os.state != prev {
		os.lastChange = s.End
	}
	os.stateGauge.Set(float64(os.state))
	os.burnGauge.Set(os.shortMean)

	if os.state == Burning && prev != Burning {
		os.breaches++
		return Breach{
			Objective: os.obj.Name,
			Series:    os.obj.Series,
			At:        s.End,
			Value:     os.value,
			Max:       os.obj.Max,
			ShortBurn: os.shortMean,
			LongBurn:  os.longMean,
		}, true
	}
	return Breach{}, false
}

// extract reads the objective's value out of one sealed window.
func (os *objState) extract(s *timeseries.Snapshot) float64 {
	switch os.obj.Kind {
	case KindP99:
		h, ok := s.Hist(os.obj.Series)
		if !ok || h.Count == 0 {
			return 0
		}
		return h.P99
	case KindRatio:
		r, ok := s.RatioOf(os.obj.Series)
		if !ok {
			return 0
		}
		return r.Value
	case KindRate:
		r, ok := s.RateOf(os.obj.Series)
		if !ok {
			return 0
		}
		return r.Rate
	case KindStaleness:
		r, ok := s.RateOf(os.obj.Series)
		if ok && r.Count > 0 {
			os.staleSecs = 0
			return 0
		}
		os.staleSecs += s.End - s.Start
		return os.staleSecs
	}
	return 0
}

// ObjectiveStatus is one objective's row in the /debug/slo payload.
type ObjectiveStatus struct {
	Name       string  `json:"name"`
	Series     string  `json:"series"`
	Kind       string  `json:"kind"`
	State      string  `json:"state"`
	Max        float64 `json:"max"`
	Value      float64 `json:"value"`
	ShortBurn  float64 `json:"short_burn"`
	LongBurn   float64 `json:"long_burn"`
	Breaches   int64   `json:"breaches"`
	LastChange float64 `json:"last_change"`
}

// Status is the /debug/slo payload: the worst state across objectives plus
// every objective's detail.
type Status struct {
	Time       float64           `json:"t"` // collector clock of the last seal
	Windows    uint64            `json:"windows"`
	State      string            `json:"state"`
	Objectives []ObjectiveStatus `json:"objectives"`
}

// Status reports the watchdog's current view.
func (w *Watchdog) Status() Status {
	if w == nil {
		return Status{State: Healthy.String()}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	st := Status{Time: w.lastSeal, Windows: w.windows, Objectives: make([]ObjectiveStatus, 0, len(w.objs))}
	worst := Healthy
	for _, os := range w.objs {
		if os.state > worst {
			worst = os.state
		}
		st.Objectives = append(st.Objectives, ObjectiveStatus{
			Name:       os.obj.Name,
			Series:     os.obj.Series,
			Kind:       os.obj.Kind.String(),
			State:      os.state.String(),
			Max:        os.obj.Max,
			Value:      os.value,
			ShortBurn:  os.shortMean,
			LongBurn:   os.longMean,
			Breaches:   os.breaches,
			LastChange: os.lastChange,
		})
	}
	st.State = worst.String()
	return st
}
