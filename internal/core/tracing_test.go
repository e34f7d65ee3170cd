package core

import (
	"bytes"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/explain"
	"repro/internal/topo"
	"repro/internal/wdm"
)

func spanNames(tc *obs.Trace) map[string]int {
	m := map[string]int{}
	for i := range tc.Spans {
		m[tc.Spans[i].Name]++
	}
	return m
}

func traceAttr(tc *obs.Trace, key string) any {
	var v any
	for _, a := range tc.Attrs { // last write wins, like the JSON rendering
		if a.Key == key {
			v = a.Value()
		}
	}
	return v
}

func TestRouterTracesRequest(t *testing.T) {
	net := topo.NSFNET(topo.Config{W: 4})
	tr := obs.New(obs.Config{Capacity: 16})
	r := NewRouter(nil)
	r.SetTracer(tr)

	res, ok := r.ApproxMinCost(net, 0, 9)
	if !ok {
		t.Fatal("ApproxMinCost failed")
	}
	if got := r.LastTraceID(); got != 1 {
		t.Fatalf("LastTraceID = %d, want 1", got)
	}
	tc := tr.Flight().Find(1)
	if tc == nil {
		t.Fatal("trace 1 not in the flight recorder")
	}
	if tc.Kind != "min-cost" || tc.S != 0 || tc.T != 9 || tc.Status != obs.StatusOK {
		t.Fatalf("trace = %q %d→%d %q", tc.Kind, tc.S, tc.T, tc.Status)
	}
	names := spanNames(tc)
	if names["skeleton-build"] != 1 || names["reweight"] != 1 || names["suurballe"] != 1 || names["refine"] != 2 {
		t.Fatalf("span census %v; want 1×skeleton-build, 1×reweight, 1×suurballe, 2×refine", names)
	}
	if got := traceAttr(tc, "skeleton"); got != "build" {
		t.Errorf("skeleton attr = %v, want build", got)
	}
	rep := explain.Of(tc)
	if rep == nil {
		t.Fatalf("no explain report on read (payload %T)", tc.Payload)
	}
	if rep.Req != 1 || rep.ReportedCost != res.Cost || len(rep.Phases) == 0 {
		t.Fatalf("report req=%d cost=%g phases=%d", rep.Req, rep.ReportedCost, len(rep.Phases))
	}
	if !rep.Bound.Checked || !rep.Bound.Holds {
		t.Fatalf("Lemma 2 bound should hold on NSFNET: %+v", rep.Bound)
	}
	var buf bytes.Buffer
	if err := rep.WriteText(&buf); err != nil {
		t.Fatal(err)
	}

	// Second identical request: the skeleton cache hits; no build span.
	if _, ok := r.ApproxMinCost(net, 0, 9); !ok {
		t.Fatal("second ApproxMinCost failed")
	}
	tc2 := tr.Flight().Find(2)
	if tc2 == nil {
		t.Fatal("trace 2 missing")
	}
	if got := traceAttr(tc2, "skeleton"); got != "cache-hit" {
		t.Errorf("second-call skeleton attr = %v, want cache-hit", got)
	}
	if n := spanNames(tc2)["skeleton-build"]; n != 0 {
		t.Errorf("cache hit recorded %d skeleton-build spans", n)
	}
}

func TestRouterTracesMinLoad(t *testing.T) {
	net := topo.NSFNET(topo.Config{W: 4})
	tr := obs.New(obs.Config{})
	r := NewRouter(nil)
	r.SetTracer(tr)
	res, ok := r.MinLoad(net, 2, 11)
	if !ok {
		t.Fatal("MinLoad failed")
	}
	tc := tr.Flight().Find(1)
	if tc == nil {
		t.Fatal("trace missing")
	}
	// The search is one bottleneck pass, whatever its round count; the
	// graph is reweighted once, at the bound found, for the one Suurballe.
	names := spanNames(tc)
	if names["mincog"] != 1 || names["bottleneck"] != 1 || names["reweight"] != 1 || names["suurballe"] != 1 {
		t.Fatalf("span census %v; want a mincog span wrapping 1×bottleneck, then 1×reweight and 1×suurballe", names)
	}
	for _, sp := range tc.Spans {
		if sp.Name != "bottleneck" {
			continue
		}
		attrs := map[string]any{}
		for _, a := range sp.Attrs {
			attrs[a.Key] = a.Value()
		}
		if attrs["augmentations"] != int64(2) {
			t.Errorf("bottleneck span augmentations = %v, want 2", attrs["augmentations"])
		}
		if lstar, ok := attrs["bottleneck"].(float64); !ok || !(res.Threshold > lstar) {
			t.Errorf("bottleneck span L* = %v; the bound found, %g, must exceed it", attrs["bottleneck"], res.Threshold)
		}
	}
	rep := explain.Of(tc)
	if rep == nil {
		t.Fatalf("no explain report on read (payload %T)", tc.Payload)
	}
	if rep.Bound.Checked {
		t.Error("MinLoad ω is congestion-weighted; the cost bound must not be checked")
	}
	if rep.Algorithm != "min-load" {
		t.Errorf("algorithm = %q", rep.Algorithm)
	}
}

func TestRouterTracesBlockedRequest(t *testing.T) {
	// A 0→1→2 chain has no two edge-disjoint paths: the request must block
	// and the trace must land with StatusBlocked and no payload.
	net := wdm.NewNetwork(3, 2)
	net.AddLink(0, 1, []wdm.Wavelength{0, 1}, []float64{1, 1})
	net.AddLink(1, 2, []wdm.Wavelength{0, 1}, []float64{1, 1})
	tr := obs.New(obs.Config{})
	r := NewRouter(nil)
	r.SetTracer(tr)
	if _, ok := r.ApproxMinCost(net, 0, 2); ok {
		t.Fatal("chain network should not admit a disjoint pair")
	}
	tc := tr.Flight().Find(1)
	if tc == nil {
		t.Fatal("blocked request left no trace")
	}
	if tc.Status != obs.StatusBlocked || tc.Payload != nil || explain.Of(tc) != nil {
		t.Fatalf("status=%q payload=%v; want blocked, no report", tc.Status, tc.Payload)
	}

	// Behind the candidate tier, the declined request is decided by the
	// feasibility test alone: its span records the one augmentation the
	// chain carries, and the exact pipeline never runs.
	r = NewRouter(&Options{CandidateTable: NewCandidateTable(net, 4)})
	r.SetTracer(tr)
	if _, ok := r.ApproxMinCost(net, 0, 2); ok || r.LastTier() != TierFallback {
		t.Fatalf("candidate-tier router: ok %v, tier %v; want a blocked fallback", ok, r.LastTier())
	}
	tc = tr.Flight().Find(r.LastTraceID())
	if tc == nil || tc.Status != obs.StatusBlocked {
		t.Fatalf("blocked fallback trace = %+v", tc)
	}
	feasible, augs := false, any(nil)
	for _, sp := range tc.Spans {
		switch sp.Name {
		case "feasibility":
			feasible = true
			for _, a := range sp.Attrs {
				if a.Key == "augmentations" {
					augs = a.Value()
				}
			}
		case "reweight", "suurballe":
			if feasible {
				t.Errorf("span %q follows the feasibility test of a blocked request", sp.Name)
			}
		}
	}
	if !feasible || augs != int64(1) {
		t.Fatalf("blocked fallback: feasibility span %v with augmentations %v, want one with 1 (spans %v)", feasible, augs, spanNames(tc))
	}
}

func TestRouterTracerDisabled(t *testing.T) {
	net := topo.NSFNET(topo.Config{W: 4})
	tr := obs.New(obs.Config{})
	r := NewRouter(nil)
	r.SetTracer(nil)
	if _, ok := r.ApproxMinCost(net, 0, 9); !ok {
		t.Fatal("ApproxMinCost failed")
	}
	if got := r.LastTraceID(); got != -1 {
		t.Errorf("LastTraceID = %d, want -1 with no tracer", got)
	}
	r.SetTracer(tr)
	if _, ok := r.TwoStepMinCost(net, 0, 9); !ok {
		t.Fatal("TwoStepMinCost failed")
	}
	if tc := tr.Flight().Find(1); tc == nil || tc.Kind != "two-step" {
		t.Fatalf("two-step trace missing or mislabelled: %+v", tc)
	}
}

// BenchmarkTracerOverhead quantifies E22: the warm min-cost hot path with no
// tracer (the production default) and with tracing fully on (spans + explain
// capture + flight recorder).
func BenchmarkTracerOverhead(b *testing.B) {
	for _, mode := range []string{"none", "enabled"} {
		b.Run(mode, func(b *testing.B) {
			net := topo.NSFNET(topo.Config{W: 8})
			r := NewRouter(nil)
			if mode == "enabled" {
				r.SetTracer(obs.New(obs.Config{}))
			}
			if _, ok := r.ApproxMinCost(net, 0, 9); !ok {
				b.Fatal("ApproxMinCost failed")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.ApproxMinCost(net, 0, 9)
			}
		})
	}
}
