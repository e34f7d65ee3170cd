package explain_test

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/conns"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/explain"
	"repro/internal/topo"
	"repro/internal/wdm"
)

// input projects a routed core.Result into an explain.Input.
func input(algo string, s, t int, res *core.Result) explain.Input {
	return explain.Input{
		Req:        -1,
		Algorithm:  algo,
		S:          s,
		T:          t,
		LoadAux:    algo == "min-load",
		Primary:    res.Primary,
		Backup:     res.Backup,
		Cost:       res.Cost,
		AuxWeight:  res.AuxWeight,
		NaiveCost:  res.NaiveCost,
		Threshold:  res.Threshold,
		Iterations: res.Iterations,
		PathLoad:   res.PathLoad,
	}
}

// build renders in as a report the way a traced request's is rendered: the
// capture lands in a trace with no spans, and Of renders the flight
// recorder's copy, so the report has no phase table.
func build(t *testing.T, net *wdm.Network, in explain.Input) *explain.Report {
	t.Helper()
	tr := obs.New(obs.Config{Capacity: 1})
	tc := tr.Start(in.Algorithm, in.S, in.T)
	req := tc.ReqID()
	explain.Capture(tc, net, in)
	tc.Finish(obs.StatusOK)
	rep := explain.Of(tr.Flight().Find(req))
	if rep == nil {
		t.Fatal("captured request rendered no report")
	}
	return rep
}

// TestBitExactVsCheckOracle is the acceptance gate: on randomly generated
// instances — including restricted and disallowed conversion — the report's
// per-path cost must equal check.PathCost bit for bit, not just within a
// tolerance. Requests are admitted as they route so later requests see
// genuine residual state (occupied wavelengths change the conversion terms).
func TestBitExactVsCheckOracle(t *testing.T) {
	routed := 0
	for seed := int64(1); seed <= 60; seed++ {
		in := check.GenerateSeeded(seed, 12)
		net, err := in.Build()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		tab := conns.New[struct{}](net)
		r := core.NewRouter(nil)
		for s := 0; s < net.Nodes(); s++ {
			for d := 0; d < net.Nodes(); d++ {
				if s == d {
					continue
				}
				var res *core.Result
				var ok bool
				algo := "min-cost"
				if (s+d)%2 == 0 {
					res, ok = r.ApproxMinCost(net, s, d)
				} else {
					algo = "min-load"
					res, ok = r.MinLoad(net, s, d)
				}
				if !ok {
					continue
				}
				routed++
				rep := build(t, net, input(algo, s, d, res))
				for name, got := range map[string]struct {
					path *wdm.Semilightpath
					cost float64
				}{
					"primary": {res.Primary, rep.Primary.Cost},
					"backup":  {res.Backup, rep.Backup.Cost},
				} {
					want := check.PathCost(net, got.path)
					if math.Float64bits(got.cost) != math.Float64bits(want) {
						t.Fatalf("seed %d %s %d→%d: %s cost %v != oracle %v (bit-exact required)",
							seed, algo, s, d, name, got.cost, want)
					}
				}
				wantPair := check.PathCost(net, res.Primary) + check.PathCost(net, res.Backup)
				if math.Float64bits(rep.PairCost) != math.Float64bits(wantPair) {
					t.Fatalf("seed %d %s %d→%d: pair cost %v != oracle sum %v",
						seed, algo, s, d, rep.PairCost, wantPair)
				}
				// The oracle's tolerance check against the router's own
				// reported cost must also pass on the recomputed value.
				if err := check.Cost(net, res.Primary, rep.Primary.Cost); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if want := algo == "min-cost"; rep.Bound.Checked != want {
					t.Fatalf("seed %d %s: bound.Checked = %v, want %v", seed, algo, rep.Bound.Checked, want)
				}
				if _, err := tab.Admit(int64(s*net.Nodes()+d), s, d, res.Pair()); err != nil {
					continue // capacity exhausted; keep routing on what's left
				}
			}
		}
	}
	if routed < 100 {
		t.Fatalf("only %d routed requests exercised; generator or router regressed", routed)
	}
}

func TestHopAndConversionBreakdown(t *testing.T) {
	net := topo.NSFNET(topo.Config{W: 4})
	res, ok := core.NewRouter(nil).ApproxMinCost(net, 0, 9)
	if !ok {
		t.Fatal("ApproxMinCost failed on NSFNET")
	}
	rep := build(t, net, input("min-cost", 0, 9, res))
	if len(rep.Primary.Hops) != res.Primary.Len() {
		t.Fatalf("primary hop count %d != %d", len(rep.Primary.Hops), res.Primary.Len())
	}
	// Hop chain must be connected s → … → t with per-hop weights from the
	// network.
	at := 0
	for i, h := range rep.Primary.Hops {
		if h.From != at {
			t.Fatalf("hop %d starts at %d, want %d", i, h.From, at)
		}
		if w := net.Link(h.Link).Cost(h.Lambda); w != h.W {
			t.Fatalf("hop %d weight %g, want %g", i, h.W, w)
		}
		at = h.To
	}
	if at != 9 {
		t.Fatalf("primary ends at %d, want 9", at)
	}
	// Every recorded conversion must match a wavelength change between
	// consecutive hops, and the conv sum must reconcile with the split.
	convSum := 0.0
	for i := 0; i+1 < len(rep.Primary.Hops); i++ {
		h, next := rep.Primary.Hops[i], rep.Primary.Hops[i+1]
		if (h.Conv != nil) != (h.Lambda != next.Lambda) {
			t.Fatalf("hop %d conversion presence disagrees with λ change", i)
		}
		if h.Conv != nil {
			if h.Conv.Node != h.To || h.Conv.From != h.Lambda || h.Conv.To != next.Lambda {
				t.Fatalf("hop %d conversion %+v inconsistent", i, h.Conv)
			}
			convSum += h.Conv.Cost
		}
	}
	if convSum != rep.Primary.ConvCost {
		t.Fatalf("conv sum %g != ConvCost %g", convSum, rep.Primary.ConvCost)
	}
	if !rep.Bound.Checked || !rep.Bound.Holds {
		t.Fatalf("Lemma 2 bound should hold on NSFNET: %+v", rep.Bound)
	}
}

func TestTwoStepHasNoBound(t *testing.T) {
	net := topo.NSFNET(topo.Config{W: 4})
	res, ok := core.NewRouter(nil).TwoStepMinCost(net, 0, 9)
	if !ok {
		t.Fatal("TwoStepMinCost failed")
	}
	rep := build(t, net, input("two-step", 0, 9, res))
	if rep.Bound.Checked {
		t.Fatalf("two-step has no aux pair, bound should be unchecked: %+v", rep.Bound)
	}
}

// TestAddPhases: Of aggregates the trace's spans by name into the report's
// phase table, in first-appearance order, on top of the captured report.
func TestAddPhases(t *testing.T) {
	net := topo.NSFNET(topo.Config{W: 4})
	res, ok := core.NewRouter(nil).MinLoad(net, 0, 9)
	if !ok {
		t.Fatal("MinLoad failed")
	}
	tr := obs.New(obs.Config{})
	tc := tr.Start("min-load", 0, 9)
	for i := 0; i < 3; i++ {
		sp := tc.Begin("reweight")
		time.Sleep(time.Microsecond)
		tc.EndSpan(sp)
	}
	sp := tc.Begin("suurballe")
	tc.EndSpan(sp)
	in := input("min-load", 0, 9, res)
	in.Req = tc.Req
	explain.Capture(tc, net, in)
	tc.Finish(obs.StatusOK)

	rep := explain.Of(tr.Flight().Find(1))
	if rep == nil {
		t.Fatal("Of found no report on a captured trace")
	}
	if len(rep.Phases) != 2 {
		t.Fatalf("phase count = %d, want 2", len(rep.Phases))
	}
	if rep.Phases[0].Name != "reweight" || rep.Phases[0].Count != 3 || rep.Phases[0].Seconds <= 0 {
		t.Fatalf("reweight phase %+v", rep.Phases[0])
	}
	if !strings.Contains(rep.Phases[1].Term, "Suurballe") && !strings.Contains(rep.Phases[1].Term, "pair search") {
		t.Fatalf("suurballe term %q not mapped", rep.Phases[1].Term)
	}
	if rep.Req != 1 || rep.Algorithm != "min-load" || len(rep.Primary.Hops) != res.Primary.Len() {
		t.Fatalf("report req=%d algo=%q hops=%d", rep.Req, rep.Algorithm, len(rep.Primary.Hops))
	}
	if explain.Of(nil) != nil {
		t.Fatal("Of(nil) rendered a report")
	}
	blocked := tr.Start("min-load", 0, 9)
	id := blocked.Req
	blocked.Finish(obs.StatusBlocked)
	if explain.Of(tr.Flight().Find(id)) != nil {
		t.Fatal("Of rendered a report for a trace with no capture")
	}
}

func TestRenderTextAndJSON(t *testing.T) {
	net := topo.NSFNET(topo.Config{W: 4})
	res, ok := core.NewRouter(nil).MinLoadCost(net, 0, 9)
	if !ok {
		t.Fatal("MinLoadCost failed")
	}
	rep := build(t, net, input("min-load-cost", 0, 9, res))

	var txt bytes.Buffer
	if err := rep.WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"request  0 → 9 via min-load-cost", "primary", "backup", "pair", "bound", "w(e"} {
		if !strings.Contains(txt.String(), want) {
			t.Errorf("text report missing %q:\n%s", want, txt.String())
		}
	}

	var js bytes.Buffer
	if err := rep.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var back explain.Report
	if err := json.Unmarshal(js.Bytes(), &back); err != nil {
		t.Fatalf("report JSON does not round-trip: %v", err)
	}
	if back.PairCost != rep.PairCost || len(back.Primary.Hops) != len(rep.Primary.Hops) {
		t.Fatal("round-tripped report lost data")
	}
}
