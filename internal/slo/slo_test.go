package slo

import (
	"testing"

	"repro/internal/metrics"
	"repro/internal/timeseries"
)

// harness is a collector advanced directly plus a watchdog — burn-rate
// windows advance deterministically, no wall clock anywhere.
type harness struct {
	col      *timeseries.Collector
	lat      *metrics.Histogram
	blocked  metrics.Counter
	accepted metrics.Counter
	confl    metrics.Counter
	epoch    metrics.Counter
	wd       *Watchdog
	t        float64 // current sim time
}

func newHarness(t *testing.T, objs ...Objective) *harness {
	t.Helper()
	col := timeseries.New(1)
	h := &harness{col: col, lat: metrics.NewHistogram(nil)}
	col.Histogram("lat", h.lat)
	col.Ratio("blocking", &h.blocked, &h.accepted)
	col.Rate("conflicts", &h.confl)
	col.Rate("epochs", &h.epoch)
	wd, err := New(objs...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	h.wd = wd
	wd.Bind(col)
	return h
}

// window advances one sealed window, first feeding n latency observations of
// value v into it.
func (h *harness) window(n int, v float64) {
	for i := 0; i < n; i++ {
		h.lat.Observe(v)
	}
	h.t++
	h.col.Advance(h.t)
}

func objState1(t *testing.T, wd *Watchdog) ObjectiveStatus {
	t.Helper()
	st := wd.Status()
	if len(st.Objectives) != 1 {
		t.Fatalf("want 1 objective, got %d", len(st.Objectives))
	}
	return st.Objectives[0]
}

func TestValidation(t *testing.T) {
	if _, err := New(Objective{Name: "x", Series: "s", Max: 0}); err == nil {
		t.Fatal("want error for Max = 0")
	}
	if _, err := New(Objective{Name: "x", Max: 1}); err == nil {
		t.Fatal("want error for empty Series")
	}
	if _, err := New(Objective{Series: "s", Max: 1}); err != nil {
		t.Fatalf("name should default to series: %v", err)
	}
}

func TestBreachAndRecovery(t *testing.T) {
	obj := Objective{
		Name: "p99", Series: "lat", Kind: KindP99, Max: 0.1,
		ShortWindows: 2, LongWindows: 4,
	}
	h := newHarness(t, obj)
	var breaches []Breach
	h.wd.OnBreach(func(b Breach) { breaches = append(breaches, b) })

	// Healthy traffic: p99 ≈ 0.05, burn 0.5.
	for i := 0; i < 4; i++ {
		h.window(10, 0.05)
	}
	if got := objState1(t, h.wd); got.State != "healthy" {
		t.Fatalf("after healthy windows: state = %s, want healthy", got.State)
	}

	// One hot window is not enough to page (short mean = (5+0.5)/2 = 2.75 ≥ 2
	// but long mean = (5+0.5+0.5+0.5)/4 = 1.625 ≥ 1 — with LongWindows 4 the
	// long mean crosses too, so trim the scenario: check the single-window
	// behaviour against the configured thresholds instead of assuming.
	h.window(10, 0.5) // burn 5
	first := objState1(t, h.wd)
	if first.State == "healthy" {
		t.Fatalf("hot window ignored: %+v", first)
	}

	// Sustained overload must be burning, and must breach exactly once.
	h.window(10, 0.5)
	h.window(10, 0.5)
	got := objState1(t, h.wd)
	if got.State != "burning" {
		t.Fatalf("sustained overload: state = %s, want burning (%+v)", got.State, got)
	}
	if len(breaches) != 1 {
		t.Fatalf("breach callbacks = %d, want exactly 1", len(breaches))
	}
	b := breaches[0]
	if b.Objective != "p99" || b.Series != "lat" || b.Value <= 0.1 {
		t.Fatalf("breach payload: %+v", b)
	}

	// Recovery: cheap windows push both means back under budget.
	for i := 0; i < 6; i++ {
		h.window(10, 0.01)
	}
	got = objState1(t, h.wd)
	if got.State != "healthy" {
		t.Fatalf("after recovery: state = %s, want healthy (%+v)", got.State, got)
	}
	if got.Breaches != 1 {
		t.Fatalf("breaches = %d, want 1 (recovery must not re-count)", got.Breaches)
	}
	if len(breaches) != 1 {
		t.Fatalf("breach callbacks after recovery = %d, want 1", len(breaches))
	}

	// Second overload is a second breach.
	for i := 0; i < 4; i++ {
		h.window(10, 0.5)
	}
	if len(breaches) != 2 {
		t.Fatalf("breach callbacks after relapse = %d, want 2", len(breaches))
	}
}

func TestEmptyWindowsDoNotBurnLatency(t *testing.T) {
	obj := Objective{Name: "p99", Series: "lat", Kind: KindP99, Max: 0.01}
	h := newHarness(t, obj)
	for i := 0; i < 10; i++ {
		h.window(0, 0) // idle: no samples at all
	}
	if got := objState1(t, h.wd); got.State != "healthy" {
		t.Fatalf("idle daemon: state = %s, want healthy", got.State)
	}
}

func TestRatioObjective(t *testing.T) {
	obj := Objective{
		Name: "blocking", Series: "blocking", Kind: KindRatio, Max: 0.1,
		ShortWindows: 2, LongWindows: 3,
	}
	h := newHarness(t, obj)
	// 50% blocking, burn 5, sustained.
	for i := 0; i < 3; i++ {
		h.blocked.Inc()
		h.accepted.Inc()
		h.window(0, 0)
	}
	if got := objState1(t, h.wd); got.State != "burning" {
		t.Fatalf("state = %s, want burning (%+v)", got.State, got)
	}
}

func TestRateObjective(t *testing.T) {
	obj := Objective{
		Name: "conflicts", Series: "conflicts", Kind: KindRate, Max: 2, // 2 conflicts/s
		ShortWindows: 2, LongWindows: 3,
	}
	h := newHarness(t, obj)
	for i := 0; i < 3; i++ {
		for j := 0; j < 10; j++ { // 10/s, burn 5
			h.confl.Inc()
		}
		h.window(0, 0)
	}
	if got := objState1(t, h.wd); got.State != "burning" {
		t.Fatalf("state = %s, want burning (%+v)", got.State, got)
	}
}

func TestStalenessObjective(t *testing.T) {
	obj := Objective{
		Name: "epochs", Series: "epochs", Kind: KindStaleness, Max: 1, // 1s without epochs
		ShortWindows: 3, LongWindows: 3,
	}
	h := newHarness(t, obj)
	// Epochs flowing: healthy.
	for i := 0; i < 3; i++ {
		h.epoch.Inc()
		h.window(0, 0)
	}
	if got := objState1(t, h.wd); got.State != "healthy" {
		t.Fatalf("epochs flowing: state = %s, want healthy", got.State)
	}
	// Committer stops publishing: staleness accumulates 1s per window
	// (burns 1, 2, 3 → short mean 2 at the third empty window).
	h.window(0, 0)
	h.window(0, 0)
	h.window(0, 0)
	got := objState1(t, h.wd)
	if got.State != "burning" {
		t.Fatalf("stale epochs: state = %s, want burning (%+v)", got.State, got)
	}
	if got.Value != 3 {
		t.Fatalf("staleness value = %g, want 3 (seconds)", got.Value)
	}
	// One published epoch resets the accumulator.
	h.epoch.Inc()
	h.window(0, 0)
	if got := objState1(t, h.wd); got.Value != 0 {
		t.Fatalf("staleness after publish = %g, want 0", got.Value)
	}
}

func TestStatusAggregatesWorstState(t *testing.T) {
	h := newHarness(t,
		Objective{Name: "a", Series: "lat", Kind: KindP99, Max: 1e9}, // never burns
		Objective{Name: "b", Series: "blocking", Kind: KindRatio, Max: 0.01,
			ShortWindows: 1, LongWindows: 1},
	)
	h.blocked.Inc()
	h.window(1, 0.001)
	st := h.wd.Status()
	if st.State != "burning" {
		t.Fatalf("aggregate state = %s, want burning", st.State)
	}
	if st.Windows != 1 {
		t.Fatalf("windows = %d, want 1", st.Windows)
	}
}

func TestEnableMetricsGauges(t *testing.T) {
	reg := metrics.NewRegistry()
	h := newHarness(t, Objective{
		Name: "Req P99!", Series: "lat", Kind: KindP99, Max: 0.1,
		ShortWindows: 1, LongWindows: 1,
	})
	h.wd.EnableMetrics(reg)
	h.window(5, 1.0) // burn 10 → burning
	for _, m := range reg.Snapshot() {
		if m.Name == "slo_req_p99__state" {
			if got := *m.Value; got != float64(Burning) {
				t.Fatalf("state gauge = %g, want %g", got, float64(Burning))
			}
			return
		}
	}
	t.Fatal("state gauge not published")
}

func TestNilWatchdogSafe(t *testing.T) {
	var w *Watchdog
	w.Bind(nil)
	w.Observe(nil)
	w.OnBreach(nil)
	w.EnableMetrics(nil)
	if st := w.Status(); st.State != "healthy" {
		t.Fatalf("nil watchdog state = %s", st.State)
	}
}
