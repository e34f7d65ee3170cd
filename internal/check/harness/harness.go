// Package harness is the randomized differential driver of the verification
// subsystem: it generates instances with internal/check, routes every
// request through the production engine twice — once with a fresh
// core.Router per call and once with a single warm router whose skeleton
// caches and workspaces carry across the whole stream — asserts every
// invariant the oracle knows about, and on small Theorem-2-eligible
// instances compares against the exact solvers to certify optimality of the
// exact pair and the factor-2 bound of the approximation. Failures are
// shrunk to minimal instances and reported as JSON-serialisable artifacts.
package harness

import (
	"fmt"
	"math"

	"repro/internal/check"
	"repro/internal/conns"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/wdm"
)

// Config tunes a harness run.
type Config struct {
	// N is the number of random instances (default 100).
	N int
	// Seed drives the instance generator.
	Seed int64
	// MaxNodes caps instance size (default 7).
	MaxNodes int
	// Exact enables comparison against exact.Exhaustive (and, on the
	// smallest instances, exact.ILP) for min-cost requests on
	// Theorem-2-eligible instances.
	Exact bool
	// MaxRoutes caps exact route enumeration (default 2000); comparisons
	// that would truncate are skipped, never failed.
	MaxRoutes int
	// NoShrink skips minimisation of failing instances.
	NoShrink bool
	// ShrinkBudget caps shrinking predicate evaluations (default 2000).
	ShrinkBudget int
	// MaxFailures stops the run early after this many failing instances
	// (default 5).
	MaxFailures int

	// Candidates, when positive, adds a third routing arm: a stream-long
	// router with the candidate-path fast tier enabled, on a table of
	// k = Candidates pairs per instance. The
	// arm routes every request on the fresh arm's residual network without
	// establishing — same state, so its outcome is directly comparable: it
	// must agree on feasibility (the tier falls back to exact routing rather
	// than block), satisfy every legality/disjointness invariant, and stay
	// within CandidateGate of the exact-tier cost on min-cost and
	// min-load-cost requests; on min-load-cost it must also keep the exact
	// arm's ϑ and round count and route every hop below ϑ.
	Candidates int
	// CandidateGate caps candidate-tier cost / exact-tier cost per min-cost
	// or min-load-cost request (default 2, mirroring the Theorem 2 factor).
	CandidateGate float64

	// Mutate, when set, corrupts every successful routing result before the
	// oracle sees it. It exists for fault-injection tests that prove the
	// harness actually catches bugs (mutation testing); production runs
	// leave it nil.
	Mutate func(*core.Result)
}

func (c *Config) n() int {
	if c.N <= 0 {
		return 100
	}
	return c.N
}

func (c *Config) maxNodes() int {
	if c.MaxNodes <= 0 {
		return 7
	}
	return c.MaxNodes
}

func (c *Config) maxRoutes() int {
	if c.MaxRoutes <= 0 {
		return 2000
	}
	return c.MaxRoutes
}

func (c *Config) maxFailures() int {
	if c.MaxFailures <= 0 {
		return 5
	}
	return c.MaxFailures
}

func (c *Config) candidateGate() float64 {
	if c.CandidateGate <= 0 {
		return 2
	}
	return c.CandidateGate
}

// Report tallies a run.
type Report struct {
	Instances int
	Ops       int
	Routed    int
	Blocked   int
	Teardowns int
	// ExactCompared counts approx-vs-exhaustive comparisons; ILPCompared
	// counts the subset additionally cross-checked against the ILP.
	ExactCompared int
	ILPCompared   int
	// MaxRatio is the worst observed approx/exact cost ratio (Theorem 2
	// bounds it by 2 on eligible instances).
	MaxRatio float64
	// CandidateCompared counts candidate-arm comparisons on min-cost and
	// min-load-cost requests; MaxCandidateRatio is the worst candidate/exact cost ratio
	// seen (gated by Config.CandidateGate).
	CandidateCompared int
	MaxCandidateRatio float64
	// CandidateHits counts, per algorithm, the candidate-arm requests the
	// tier answered without the exact fallback.
	CandidateHits map[check.Algo]int
	Failures      []check.Artifact
}

// OK reports whether the run saw no violation.
func (r *Report) OK() bool { return len(r.Failures) == 0 }

// Summary renders the one-line result wdmcheck prints.
func (r *Report) Summary() string {
	s := fmt.Sprintf("instances=%d ops=%d routed=%d blocked=%d teardowns=%d exact=%d ilp=%d maxRatio=%.4f violations=%d",
		r.Instances, r.Ops, r.Routed, r.Blocked, r.Teardowns,
		r.ExactCompared, r.ILPCompared, r.MaxRatio, len(r.Failures))
	if r.CandidateCompared > 0 {
		s += fmt.Sprintf(" candidates=%d candRatio=%.4f", r.CandidateCompared, r.MaxCandidateRatio)
	}
	return s
}

// Run generates cfg.N instances and drives each through RunInstance,
// shrinking every failure to a minimal reproduction.
func Run(cfg Config) *Report {
	rep := &Report{}
	for i := 0; i < cfg.n(); i++ {
		seed := cfg.Seed + int64(i)
		in := check.GenerateSeeded(seed, cfg.maxNodes())
		rep.Instances++
		err := RunInstance(in, cfg, rep)
		if err == nil {
			continue
		}
		art := check.Artifact{Err: err.Error(), Instance: in}
		if opErr, ok := err.(*OpError); ok {
			art.Op = opErr.Op
		}
		if !cfg.NoShrink {
			art.Shrunk = check.Shrink(in, func(cand *check.Instance) bool {
				return RunInstance(cand, cfg, nil) != nil
			}, cfg.ShrinkBudget)
		}
		rep.Failures = append(rep.Failures, art)
		if len(rep.Failures) >= cfg.maxFailures() {
			break
		}
	}
	return rep
}

// OpError locates a violation at one operation of the request stream.
type OpError struct {
	Op   int
	Algo check.Algo
	Err  error
}

//wdm:coldpath error rendering after a failed operation
func (e *OpError) Error() string {
	return fmt.Sprintf("op %d (%s): %v", e.Op, e.Algo, e.Err)
}

func (e *OpError) Unwrap() error { return e.Err }

// routeWarm routes with r; the fresh arm passes a throwaway router (every
// call builds its auxiliary graph), the warm arm the stream-long one.
func routeWarm(r *core.Router, net *wdm.Network, op check.Op) (*core.Result, bool) {
	switch op.Algo {
	case check.AlgoMinCost:
		return r.ApproxMinCost(net, op.Src, op.Dst)
	case check.AlgoMinLoad:
		return r.MinLoad(net, op.Src, op.Dst)
	case check.AlgoMinLoadCost:
		return r.MinLoadCost(net, op.Src, op.Dst)
	case check.AlgoNodeDisjoint:
		return r.ApproxMinCostNodeDisjoint(net, op.Src, op.Dst)
	}
	panic("harness: unknown algorithm")
}

// sameHops reports whether two semilightpaths are hop-for-hop identical.
func sameHops(a, b *wdm.Semilightpath) bool {
	if len(a.Hops) != len(b.Hops) {
		return false
	}
	for i := range a.Hops {
		if a.Hops[i] != b.Hops[i] {
			return false
		}
	}
	return true
}

// diffResults compares the fresh and warm routing decisions field by field.
// The two arms run identical deterministic code over identical residual
// state, so every field must match exactly.
func diffResults(f, w *core.Result) error {
	switch {
	case f.Cost != w.Cost:
		return fmt.Errorf("fresh/warm cost diverged: %g vs %g", f.Cost, w.Cost)
	case f.AuxWeight != w.AuxWeight:
		return fmt.Errorf("fresh/warm aux weight diverged: %g vs %g", f.AuxWeight, w.AuxWeight)
	case f.NaiveCost != w.NaiveCost:
		return fmt.Errorf("fresh/warm naive cost diverged: %g vs %g", f.NaiveCost, w.NaiveCost)
	case f.Threshold != w.Threshold:
		return fmt.Errorf("fresh/warm threshold diverged: %g vs %g", f.Threshold, w.Threshold)
	case f.PathLoad != w.PathLoad:
		return fmt.Errorf("fresh/warm path load diverged: %g vs %g", f.PathLoad, w.PathLoad)
	case !sameHops(f.Primary, w.Primary):
		return fmt.Errorf("fresh/warm primary hops diverged")
	case !sameHops(f.Backup, w.Backup):
		return fmt.Errorf("fresh/warm backup hops diverged")
	}
	return nil
}

// checkResult runs every per-result invariant against the residual network
// the pair was routed on (before establishment).
func checkResult(net *wdm.Network, op check.Op, res *core.Result) error {
	if err := check.PathAvailable(net, res.Primary, op.Src, op.Dst); err != nil {
		return fmt.Errorf("primary: %w", err)
	}
	if err := check.PathAvailable(net, res.Backup, op.Src, op.Dst); err != nil {
		return fmt.Errorf("backup: %w", err)
	}
	if err := check.EdgeDisjoint(res.Primary, res.Backup); err != nil {
		return err
	}
	if op.Algo == check.AlgoNodeDisjoint {
		if err := check.NodeDisjoint(net, res.Primary, res.Backup, op.Src, op.Dst); err != nil {
			return err
		}
	}
	cp := check.PathCost(net, res.Primary)
	cb := check.PathCost(net, res.Backup)
	if !check.ApproxEq(cp+cb, res.Cost) {
		return fmt.Errorf("Eq. 1 accounting: reported pair cost %g, recomputed %g + %g = %g",
			res.Cost, cp, cb, cp+cb)
	}
	if cp > cb+1e-9 {
		return fmt.Errorf("primary (%g) costs more than backup (%g); cheaper path must lead", cp, cb)
	}
	// Lemma 2: the refined assignment can never cost more than first-fit on
	// the same routes.
	if !math.IsInf(res.NaiveCost, 1) && res.Cost > res.NaiveCost+1e-9 {
		return fmt.Errorf("refined cost %g exceeds first-fit cost %g (Lemma 2)", res.Cost, res.NaiveCost)
	}
	if got := check.PairLoad(net, res.Primary, res.Backup); math.Abs(got-res.PathLoad) > 1e-12 {
		return fmt.Errorf("path-load accounting: reported %g, recomputed %g", res.PathLoad, got)
	}
	return nil
}

// checkCandidate routes op through the candidate-tier router on the SAME
// residual network the exact arm just saw (route-only, nothing is
// established) and asserts the tier's accuracy gate: identical feasibility
// (the tier falls back to exact routing rather than block a servable
// request), the full per-result invariant set, and — on min-cost and
// min-load-cost requests, where the tier is active — a bounded cost ratio
// versus the exact-tier pair. On min-load-cost the tier runs after the
// MinCog search, so ϑ and the round count must equal the exact arm's, and
// every hop of the tier's pair must pass G_rc's filter, a load below ϑ. On
// every other algorithm the tier is inert, so the result must match the
// exact arm field for field.
func checkCandidate(candR *core.Router, net *wdm.Network, op check.Op, rF *core.Result, okF bool, cfg Config, rep *Report) error {
	rC, okC := routeWarm(candR, net, op)
	if okC != okF {
		return fmt.Errorf("candidate arm ok=%v, exact arm ok=%v (fallback must preserve feasibility)", okC, okF)
	}
	if !okF {
		return nil
	}
	switch op.Algo {
	case check.AlgoMinCost:
	case check.AlgoMinLoadCost:
		if err := underBound(net, rF, rC); err != nil {
			return fmt.Errorf("candidate arm: %w", err)
		}
	default:
		if err := diffResults(rF, rC); err != nil {
			return fmt.Errorf("candidate arm (tier inert for %s): %w", op.Algo, err)
		}
		return nil
	}
	if err := checkResult(net, op, rC); err != nil {
		return fmt.Errorf("candidate arm: %w", err)
	}
	if rep != nil {
		rep.CandidateCompared++
		if candR.LastTier() == core.TierCandidate {
			if rep.CandidateHits == nil {
				rep.CandidateHits = map[check.Algo]int{}
			}
			rep.CandidateHits[op.Algo]++
		}
	}
	if rF.Cost > 1e-9 {
		ratio := rC.Cost / rF.Cost
		if rep != nil && ratio > rep.MaxCandidateRatio {
			rep.MaxCandidateRatio = ratio
		}
		if gate := cfg.candidateGate(); ratio > gate+1e-9 {
			return fmt.Errorf("candidate accuracy gate: candidate cost %g / exact cost %g = %.4f > %g",
				rC.Cost, rF.Cost, ratio, gate)
		}
	}
	return nil
}

// underBound checks a candidate-tier MinLoadCost result c against the exact
// arm's result e on the state both routed on: the same ϑ and MinCog round
// count, and every hop of c's pair on a link whose load is below ϑ.
func underBound(net *wdm.Network, e, c *core.Result) error {
	if c.Threshold != e.Threshold || c.Iterations != e.Iterations {
		return fmt.Errorf("threshold %g after %d rounds, exact arm %g after %d",
			c.Threshold, c.Iterations, e.Threshold, e.Iterations)
	}
	for _, p := range [2]*wdm.Semilightpath{c.Primary, c.Backup} {
		for _, h := range p.Hops {
			if load := net.Link(h.Link).Load(); !(load < c.Threshold) {
				return fmt.Errorf("hop on link %d has load %g, not below ϑ = %g", h.Link, load, c.Threshold)
			}
		}
	}
	return nil
}

// exactILPCap gates the ILP cross-check: the branch-and-bound is exponential
// in the variable count, so only the smallest instances go through it.
const exactILPCap = 5

// checkExact compares an approximate result (or a blocked request) against
// exact.Exhaustive, asserting feasibility agreement, exact-pair validity,
// optimality, and the Theorem-2 ratio. Only called on eligible instances for
// min-cost requests. ok/res describe the approximation's outcome.
func checkExact(net *wdm.Network, op check.Op, res *core.Result, ok bool, cfg Config, rep *Report) error {
	sol, truncated, okE := exact.Exhaustive(net, op.Src, op.Dst, cfg.maxRoutes())
	if truncated {
		return nil // enumeration capped: no verdict
	}
	if !ok {
		if okE {
			return fmt.Errorf("approx reported infeasible but exact pair exists (cost %g)", sol.Cost)
		}
		return nil
	}
	if !okE {
		return fmt.Errorf("approx found a pair (cost %g) but exact says infeasible", res.Cost)
	}
	// The exact pair must satisfy the same §3 invariants.
	if err := check.PathAvailable(net, sol.Primary, op.Src, op.Dst); err != nil {
		return fmt.Errorf("exact primary: %w", err)
	}
	if err := check.PathAvailable(net, sol.Backup, op.Src, op.Dst); err != nil {
		return fmt.Errorf("exact backup: %w", err)
	}
	if err := check.EdgeDisjoint(sol.Primary, sol.Backup); err != nil {
		return fmt.Errorf("exact pair: %w", err)
	}
	exactCost := check.PathCost(net, sol.Primary) + check.PathCost(net, sol.Backup)
	if !check.ApproxEq(exactCost, sol.Cost) {
		return fmt.Errorf("exact Eq. 1 accounting: reported %g, recomputed %g", sol.Cost, exactCost)
	}
	if rep != nil {
		rep.ExactCompared++
	}
	// Optimality: the heuristic can never beat the exact optimum.
	if res.Cost < sol.Cost-1e-9 {
		return fmt.Errorf("approx cost %g beats 'exact' optimum %g", res.Cost, sol.Cost)
	}
	if sol.Cost > 1e-9 {
		ratio := res.Cost / sol.Cost
		if rep != nil && ratio > rep.MaxRatio {
			rep.MaxRatio = ratio
		}
		if ratio > 2+1e-9 {
			return fmt.Errorf("Theorem 2 violated: approx %g / exact %g = %.4f > 2", res.Cost, sol.Cost, ratio)
		}
	}
	// On the smallest instances the independent ILP must agree with the
	// enumeration (each solver certifies the other).
	if net.Nodes() <= exactILPCap && net.W() <= 2 {
		ilpSol, _, okI := exact.ILP(net, op.Src, op.Dst, exact.ILPConfig{})
		if !okI {
			return fmt.Errorf("ILP infeasible where exhaustive found cost %g", sol.Cost)
		}
		if !check.ApproxEq(ilpSol.Cost, sol.Cost) {
			return fmt.Errorf("ILP optimum %g disagrees with exhaustive optimum %g", ilpSol.Cost, sol.Cost)
		}
		if rep != nil {
			rep.ILPCompared++
		}
	}
	return nil
}

// RunInstance drives one instance end to end: two network clones, each
// owned by a connection table, routed by a fresh and a warm arm; every
// invariant checked after every operation, the fresh table audited after
// each, and a full drain at the end. A nil rep skips tallying (the shrinking
// predicate uses that). The returned error is nil when every check passed.
func RunInstance(in *check.Instance, cfg Config, rep *Report) error {
	netF, err := in.Build()
	if err != nil {
		return fmt.Errorf("build: %w", err)
	}
	netW, err := in.Build()
	if err != nil {
		return fmt.Errorf("build: %w", err)
	}
	baseAvail := netF.TotalAvailable()
	tabF, tabW := conns.New[struct{}](netF), conns.New[struct{}](netW)
	warm := core.NewRouter(nil)
	var candR *core.Router
	if cfg.Candidates > 0 {
		candR = core.NewRouter(&core.Options{CandidateTable: core.NewCandidateTable(netF, cfg.Candidates)})
	}
	eligible := in.Eligible()

	blocked := map[int]bool{}
	fail := func(i int, algo check.Algo, err error) error {
		return &OpError{Op: i, Algo: algo, Err: err}
	}

	for i, op := range in.Ops {
		if rep != nil {
			rep.Ops++
		}
		if op.Teardown >= 0 {
			id := int64(op.Teardown)
			if _, err := tabF.Teardown(id); err != nil {
				// The generator's op stream assumes establishes succeed; when
				// the network blocked one, tearing it down is a no-op rather
				// than a violation.
				if err == conns.ErrUnknown && blocked[op.Teardown] {
					continue
				}
				return fail(i, 0, fmt.Errorf("fresh teardown of op %d: %w", op.Teardown, err))
			}
			if _, err := tabW.Teardown(id); err != nil {
				return fail(i, 0, fmt.Errorf("warm teardown of op %d: %w", op.Teardown, err))
			}
			if rep != nil {
				rep.Teardowns++
			}
		} else {
			rF, okF := routeWarm(core.NewRouter(nil), netF, op)
			rW, okW := routeWarm(warm, netW, op)
			if okF != okW {
				return fail(i, op.Algo, fmt.Errorf("fresh ok=%v, warm ok=%v", okF, okW))
			}
			if okF && cfg.Mutate != nil {
				cfg.Mutate(rF)
				cfg.Mutate(rW)
			}
			if okF {
				if err := diffResults(rF, rW); err != nil {
					return fail(i, op.Algo, err)
				}
				if err := checkResult(netF, op, rF); err != nil {
					return fail(i, op.Algo, err)
				}
			}
			if cfg.Exact && eligible && op.Algo == check.AlgoMinCost {
				if err := checkExact(netF, op, rF, okF, cfg, rep); err != nil {
					return fail(i, op.Algo, err)
				}
			}
			if candR != nil {
				if err := checkCandidate(candR, netF, op, rF, okF, cfg, rep); err != nil {
					return fail(i, op.Algo, err)
				}
			}
			if !okF {
				blocked[i] = true
				if rep != nil {
					rep.Blocked++
				}
				continue
			}
			if _, err := tabF.Admit(int64(i), op.Src, op.Dst, rF.Pair()); err != nil {
				return fail(i, op.Algo, fmt.Errorf("fresh admit: %w", err))
			}
			if _, err := tabW.Admit(int64(i), op.Src, op.Dst, rW.Pair()); err != nil {
				return fail(i, op.Algo, fmt.Errorf("warm admit: %w", err))
			}
			if rep != nil {
				rep.Routed++
			}
		}
		// Global residual-state bookkeeping after every operation: the Eq. 2
		// load counters, every live pair's legality and reservation, and
		// capacity conservation, re-derived by the table's audit.
		if err := tabF.Audit(); err != nil {
			return fail(i, 0, err)
		}
		if aF, aW := netF.TotalAvailable(), netW.TotalAvailable(); aF != aW {
			return fail(i, 0, fmt.Errorf("fresh/warm capacity diverged: %d vs %d available channels", aF, aW))
		}
		if lF, lW := netF.NetworkLoad(), netW.NetworkLoad(); lF != lW {
			return fail(i, 0, fmt.Errorf("fresh/warm network load diverged: %g vs %g", lF, lW))
		}
	}

	// Drain: every surviving connection releases cleanly and the network
	// returns to its pristine capacity on both arms. IDs are ascending, so
	// a teardown failure names the same op on every run.
	for _, id := range tabF.IDs(nil) {
		if _, err := tabF.Teardown(id); err != nil {
			return fmt.Errorf("drain op %d (fresh): %w", id, err)
		}
		if _, err := tabW.Teardown(id); err != nil {
			return fmt.Errorf("drain op %d (warm): %w", id, err)
		}
	}
	if got := netF.TotalAvailable(); got != baseAvail {
		return fmt.Errorf("capacity leak: %d available channels after drain, want %d", got, baseAvail)
	}
	if got := netW.TotalAvailable(); got != baseAvail {
		return fmt.Errorf("warm capacity leak: %d available channels after drain, want %d", got, baseAvail)
	}
	if rho := netF.NetworkLoad(); rho != 0 {
		return fmt.Errorf("network load %g after full drain, want 0", rho)
	}
	if err := tabF.Audit(); err != nil {
		return fmt.Errorf("after drain: %w", err)
	}
	return nil
}
