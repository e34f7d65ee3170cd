package harness

import (
	"bytes"
	"testing"

	"repro/internal/check"
	"repro/internal/core"
)

// TestSoakClean is the in-tree version of `wdmcheck -n 60 -exact`: sixty
// random instances through both router arms with every invariant and the
// exact comparison on, expecting zero violations and a Theorem-2-respecting
// ratio.
func TestSoakClean(t *testing.T) {
	n := 60
	if testing.Short() {
		n = 15
	}
	rep := Run(Config{N: n, Seed: 1, Exact: true})
	if !rep.OK() {
		var buf bytes.Buffer
		_ = rep.Failures[0].Encode(&buf)
		t.Fatalf("soak found violations: %s\nfirst artifact:\n%s", rep.Summary(), buf.String())
	}
	if rep.Routed == 0 {
		t.Fatal("soak routed nothing; generator or driver is broken")
	}
	if rep.ExactCompared == 0 {
		t.Fatal("no exact comparisons ran; eligibility gating is broken")
	}
	if rep.MaxRatio > 2+1e-9 {
		t.Fatalf("max approx/exact ratio %.4f exceeds the Theorem 2 bound", rep.MaxRatio)
	}
}

// TestCandidateArmSoak turns on the candidate fast-tier arm: every request
// re-routed through a candidate-mode router on the same residual state, with
// feasibility equality, the full invariant set, and the accuracy gate
// asserted per min-cost and min-load-cost request — on min-load-cost also
// the exact arm's ϑ and round count, and every hop below ϑ. The tier must
// answer some requests of both algorithms, or the comparison shows nothing.
func TestCandidateArmSoak(t *testing.T) {
	n := 60
	if testing.Short() {
		n = 15
	}
	rep := Run(Config{N: n, Seed: 1, Candidates: 4})
	if !rep.OK() {
		var buf bytes.Buffer
		_ = rep.Failures[0].Encode(&buf)
		t.Fatalf("candidate soak found violations: %s\nfirst artifact:\n%s", rep.Summary(), buf.String())
	}
	if rep.CandidateCompared == 0 {
		t.Fatal("candidate arm never compared a min-cost request; wiring is broken")
	}
	for _, algo := range []check.Algo{check.AlgoMinCost, check.AlgoMinLoadCost} {
		if rep.CandidateHits[algo] == 0 {
			t.Fatalf("the tier answered no %s request (hits %v)", algo, rep.CandidateHits)
		}
	}
	t.Logf("%s; tier hits %v", rep.Summary(), rep.CandidateHits)
	if rep.MaxCandidateRatio > 2+1e-9 {
		t.Fatalf("candidate/exact cost ratio %.4f exceeds the accuracy gate", rep.MaxCandidateRatio)
	}
}

// TestHarnessCatchesInjectedCostBug is the mutation check: corrupt every
// routing result's reported cost and require the harness to notice, then
// shrink the reproduction to a tiny instance. This is what certifies the
// oracle actually constrains the engine rather than rubber-stamping it.
func TestHarnessCatchesInjectedCostBug(t *testing.T) {
	cfg := Config{
		N:    40,
		Seed: 7,
		Mutate: func(r *core.Result) {
			r.Cost += 0.7
		},
	}
	rep := Run(cfg)
	if rep.OK() {
		t.Fatal("harness did not catch an injected cost-accounting bug")
	}
	art := rep.Failures[0]
	if art.Shrunk == nil {
		t.Fatal("failure was not shrunk")
	}
	if err := art.Shrunk.Validate(); err != nil {
		t.Fatalf("shrunk instance invalid: %v", err)
	}
	if RunInstance(art.Shrunk, cfg, nil) == nil {
		t.Fatal("shrunk instance does not reproduce the failure")
	}
	if art.Shrunk.Nodes > 6 {
		t.Errorf("shrunk reproduction has %d nodes, want ≤ 6", art.Shrunk.Nodes)
	}
}

// TestHarnessCatchesDroppedBackup injects a subtler bug — the backup
// silently reuses the primary — and expects the edge-disjointness oracle to
// flag it.
func TestHarnessCatchesDroppedBackup(t *testing.T) {
	rep := Run(Config{
		N:    40,
		Seed: 3,
		Mutate: func(r *core.Result) {
			r.Backup = r.Primary
		},
	})
	if rep.OK() {
		t.Fatal("harness did not catch a backup aliased to the primary")
	}
}

// TestHarnessCatchesLoadBug corrupts the PathLoad bookkeeping.
func TestHarnessCatchesLoadBug(t *testing.T) {
	rep := Run(Config{
		N:    40,
		Seed: 11,
		Mutate: func(r *core.Result) {
			r.PathLoad /= 2
		},
	})
	if rep.OK() {
		t.Fatal("harness did not catch corrupted path-load bookkeeping")
	}
}

// TestRunInstanceReplaysArtifacts ensures an instance that ran clean once
// stays clean when replayed from its JSON form (the wdmcheck -replay path).
func TestRunInstanceReplaysArtifacts(t *testing.T) {
	in := check.GenerateSeeded(21, 6)
	cfg := Config{Exact: true}
	if err := RunInstance(in, cfg, nil); err != nil {
		t.Fatalf("instance failed: %v", err)
	}
	art := check.Artifact{Err: "none", Instance: in}
	var buf bytes.Buffer
	if err := art.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := check.DecodeArtifact(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := RunInstance(back.Instance, cfg, nil); err != nil {
		t.Fatalf("replayed instance failed: %v", err)
	}
}
