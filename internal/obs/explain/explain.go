// Package explain renders a per-request routing report: how the Eq. 1 cost
// of a routed pair decomposes into per-link w(e, λ) and per-node conversion
// terms, where the time went (phase spans mapped onto the Theorem 1
// complexity terms), and whether the Lemma 2 bound — the checkable half of
// the Theorem 2 factor-2 guarantee — actually held for this request.
//
// The cost recomputation deliberately mirrors the first-principles oracle
// in internal/check term for term, in the same summation order, so a
// report's per-path totals agree bit-exactly with check.PathCost; a test
// in this package asserts that on generated instances.
//
// A report is captured when the request finishes and rendered when it is
// read. Capture copies into the trace's recycled payload a pointer-free
// per-hop table — link, endpoints, λ, w(e, λ), and each conversion's cost —
// which depends only on link costs and converters, never on later network
// state; Of renders the Report, phases included, when a debug endpoint,
// wdmroute -explain or a test reads the trace. Build is the same capture
// followed by the same render, so there is one cost decomposition. The
// package depends only on wdm and obs (never on core), so the router can
// attach its capture to the trace without an import cycle.
package explain

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"repro/internal/obs"
	"repro/internal/wdm"
)

// Input is the routed result to explain — field-for-field the slice of
// core.Result the report needs, plus the request identity. Primary is
// required; Backup may be nil (single-path disciplines).
type Input struct {
	Req        int64 // span request ID (-1 when unknown)
	Algorithm  string
	S, T       int
	Primary    *wdm.Semilightpath
	Backup     *wdm.Semilightpath
	Cost       float64 // the router's reported pair cost
	AuxWeight  float64 // ω(P₁) + ω(P₂), 0 when no auxiliary pair exists
	LoadAux    bool    // ω is congestion-weighted (G_c), not comparable to Eq. 1 cost
	NaiveCost  float64 // first-fit cost (+Inf when infeasible)
	Threshold  float64 // MinCog ϑ (load variants)
	Iterations int     // MinCog rounds
	PathLoad   float64
}

// Conv is one wavelength conversion at an intermediate node: the λp → λq
// switch entering the next hop, priced at c_v(λp, λq).
type Conv struct {
	Node int            `json:"node"`
	From wdm.Wavelength `json:"from_lambda"`
	To   wdm.Wavelength `json:"to_lambda"`
	Cost float64        `json:"cost"`
}

// Hop is one link traversal with its Eq. 1 weight. Conv, when non-nil, is
// the conversion performed at this hop's head node into the next hop.
type Hop struct {
	Link   int            `json:"link"`
	From   int            `json:"from"`
	To     int            `json:"to"`
	Lambda wdm.Wavelength `json:"lambda"`
	W      float64        `json:"w"` // w(e, λ)
	Conv   *Conv          `json:"conv,omitempty"`
}

// Path is one semilightpath with its cost breakdown. Cost is recomputed in
// check.PathCost's summation order (link weight of hop i, then the
// conversion entering hop i), so it is bit-identical to the oracle; it
// equals LinkCost + ConvCost up to float association.
type Path struct {
	Hops     []Hop   `json:"hops"`
	LinkCost float64 `json:"link_cost"`
	ConvCost float64 `json:"conv_cost"`
	Cost     float64 `json:"cost"`
}

// Bound is the per-request Lemma 2 / Theorem 2 audit: the refined pair
// cost must not exceed the auxiliary-graph pair weight ω, and ω ≤ 2·OPT
// under the §3.3 assumptions — so Holds certifies this request's factor-2
// guarantee. Checked is false when the algorithm produced no auxiliary
// pair (two-step baseline) or when the pair weight is congestion-based
// (MinLoad's G_c, incommensurable with Eq. 1 cost); Holds is then vacuous.
type Bound struct {
	Checked   bool    `json:"checked"`
	AuxWeight float64 `json:"aux_weight"`
	PairCost  float64 `json:"pair_cost"`
	Slack     float64 `json:"slack"` // AuxWeight − PairCost (≥ −eps when Holds)
	Holds     bool    `json:"holds"`
}

// Phase is the aggregate of all spans with one name, mapped to the paper
// term it implements.
type Phase struct {
	Name    string  `json:"name"`
	Term    string  `json:"term"`
	Count   int     `json:"count"`
	Seconds float64 `json:"seconds"`
}

// Report is the full explanation of one routed request.
type Report struct {
	Req          int64    `json:"req"`
	Algorithm    string   `json:"algorithm"`
	S            int      `json:"s"`
	T            int      `json:"t"`
	Primary      Path     `json:"primary"`
	Backup       *Path    `json:"backup,omitempty"`
	PairCost     float64  `json:"pair_cost"`     // recomputed Primary.Cost + Backup.Cost
	ReportedCost float64  `json:"reported_cost"` // the router's res.Cost
	AuxWeight    float64  `json:"aux_weight,omitempty"`
	NaiveCost    *float64 `json:"naive_cost,omitempty"` // omitted when first-fit was infeasible (+Inf)
	Threshold    float64  `json:"threshold,omitempty"`
	Iterations   int      `json:"iterations,omitempty"`
	PathLoad     float64  `json:"path_load"`
	Bound        Bound    `json:"bound"`
	Phases       []Phase  `json:"phases,omitempty"`
}

// boundEps matches the mixed tolerance of check.approxEq: the refined and
// auxiliary costs come from different float summation orders, so a strict
// ≤ would flag round-off as a violated guarantee.
const boundEps = 1e-9

// hopRec is one captured hop: the values the report reads from the network,
// with no pointers. conv marks a conversion at this hop's head node into
// the next hop, priced convCost (+Inf when the converter disallows it).
type hopRec struct {
	link, from, to int
	lambda         wdm.Wavelength
	w, convCost    float64
	conv           bool
}

// captureHops appends p's hops to dst with each hop's w(e, λ) and the cost
// of the conversion entering the next hop, read from net exactly as
// check.PathCost reads them: identity conversions are not recorded, and a
// disallowed conversion is priced +Inf.
func captureHops(dst []hopRec, net *wdm.Network, p *wdm.Semilightpath) []hopRec {
	for i, h := range p.Hops {
		l := net.Link(h.Link)
		dst = append(dst, hopRec{link: h.Link, from: l.From, to: l.To, lambda: h.Wavelength, w: l.Cost(h.Wavelength)})
		if i > 0 {
			prev := &dst[len(dst)-2]
			if prev.lambda != h.Wavelength {
				cc := math.Inf(1)
				if net.Converter(prev.to).Allowed(prev.lambda, h.Wavelength) {
					cc = net.Converter(prev.to).Cost(prev.lambda, h.Wavelength)
				}
				prev.conv, prev.convCost = true, cc
			}
		}
	}
	return dst
}

// renderPath decomposes one captured semilightpath. The running total
// mirrors check.PathCost exactly: hop i's link weight is added before the
// conversion entering hop i, so the path cost is bit-identical to the
// oracle's.
func renderPath(hops []hopRec) Path {
	out := Path{Hops: make([]Hop, len(hops))}
	for i, h := range hops {
		out.Hops[i] = Hop{Link: h.link, From: h.from, To: h.to, Lambda: h.lambda, W: h.w}
		out.LinkCost += h.w
		out.Cost += h.w
		if i > 0 && hops[i-1].conv {
			p := &hops[i-1]
			out.Hops[i-1].Conv = &Conv{Node: p.to, From: p.lambda, To: h.lambda, Cost: p.convCost}
			out.ConvCost += p.convCost
			out.Cost += p.convCost
		}
	}
	return out
}

// capture is everything a Report needs from one routed request: the
// router's scalars and the per-hop table of both paths (primary first,
// then the backup's when backup is set). It is the trace payload the
// router refills in place when the flight recorder recycles the trace.
type capture struct {
	in       Input // Primary and Backup cleared: the hops carry the paths
	backup   bool
	nPrimary int
	hops     []hopRec
}

// fill captures in, reusing c's hop table by capacity.
func (c *capture) fill(net *wdm.Network, in Input) {
	c.hops = captureHops(c.hops[:0], net, in.Primary)
	c.nPrimary = len(c.hops)
	c.backup = in.Backup != nil
	if c.backup {
		c.hops = captureHops(c.hops, net, in.Backup)
	}
	in.Primary, in.Backup = nil, nil
	c.in = in
}

// CopyPayload deep-copies the capture for a reader's copy of its trace.
func (c *capture) CopyPayload() any {
	cp := *c
	cp.hops = append([]hopRec(nil), c.hops...)
	return &cp
}

// Render is the report a flight-recorder dump carries for t.
func (c *capture) Render(t *obs.Trace) any {
	if r := Of(t); r != nil {
		return r
	}
	return nil
}

// render assembles the report from the capture. Phase timings are filled
// in by Of, from the request's trace.
func (c *capture) render() *Report {
	in := &c.in
	r := &Report{
		Req:          in.Req,
		Algorithm:    in.Algorithm,
		S:            in.S,
		T:            in.T,
		ReportedCost: in.Cost,
		AuxWeight:    in.AuxWeight,
		Threshold:    in.Threshold,
		Iterations:   in.Iterations,
		PathLoad:     in.PathLoad,
	}
	if !math.IsInf(in.NaiveCost, 1) && in.NaiveCost != 0 {
		nc := in.NaiveCost
		r.NaiveCost = &nc
	}
	r.Primary = renderPath(c.hops[:c.nPrimary])
	r.PairCost = r.Primary.Cost
	if c.backup {
		b := renderPath(c.hops[c.nPrimary:])
		r.Backup = &b
		r.PairCost += b.Cost
	}
	r.Bound = Bound{
		Checked:   in.AuxWeight > 0 && !in.LoadAux,
		AuxWeight: in.AuxWeight,
		PairCost:  r.PairCost,
		Slack:     in.AuxWeight - r.PairCost,
	}
	if r.Bound.Checked {
		tol := boundEps * (1 + math.Abs(in.AuxWeight))
		r.Bound.Holds = r.PairCost <= in.AuxWeight+tol
	}
	return r
}

// Capture records in as tc's payload, refilling the capture tc's recycled
// buffer carried (if any) in place, so a warm traced request allocates
// nothing here. The report is rendered later, by Of. No-op on a nil trace.
func Capture(tc *obs.Trace, net *wdm.Network, in Input) {
	if tc == nil {
		return
	}
	c, _ := tc.Recycled().(*capture)
	if c == nil {
		c = &capture{}
	}
	c.fill(net, in)
	tc.SetPayload(c)
}

// Of renders the report of a traced request, phases included, from a
// reader's copy of its trace (FlightRecorder.Find or Snapshot). It returns
// nil when the trace carries no capture — a blocked or failed request, or
// one traced by a producer that records no report.
func Of(t *obs.Trace) *Report {
	if t == nil {
		return nil
	}
	c, ok := t.Payload.(*capture)
	if !ok {
		return nil
	}
	r := c.render()
	r.addPhases(t)
	return r
}

// phaseTerm maps router span names onto the Theorem 1 complexity terms
// (the same attribution DESIGN.md §7 uses for the phase timers).
var phaseTerm = map[string]string{
	"skeleton-build": "auxiliary-graph construction (Theorem 1 O(n·d + n·W²) term)",
	"reweight":       "auxiliary-graph reweight (Theorem 1 O(n·d + n·W²) term)",
	"suurballe":      "edge-disjoint pair search (Theorem 1 O(m log n) term)",
	"bottleneck":     "MinCog bottleneck pass: links admitted in load order under one incremental two-path flow search (O(n + m))",
	"refine":         "Lemma 2 refinement (Theorem 1 O(n·W·log(nW)) term)",
	"mincog":         "MinCog threshold search (§4.1 doubling rounds, replayed on the bottleneck)",
	"candidate":      "candidate tier: cached route pairs admitted on the residual state and priced by the Lemma 2 assignment",
}

// addPhases aggregates the trace's spans by name into the report's phase
// table, in first-appearance order.
func (r *Report) addPhases(t *obs.Trace) {
	idx := map[string]int{}
	for i := range t.Spans {
		sp := &t.Spans[i]
		j, ok := idx[sp.Name]
		if !ok {
			term := phaseTerm[sp.Name]
			if term == "" {
				term = sp.Name
			}
			j = len(r.Phases)
			idx[sp.Name] = j
			r.Phases = append(r.Phases, Phase{Name: sp.Name, Term: term})
		}
		r.Phases[j].Count++
		r.Phases[j].Seconds += sp.Dur().Seconds()
	}
}

// WriteJSON renders the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// writePath renders one path section of the text report.
func writePath(w io.Writer, label string, p *Path) error {
	if _, err := fmt.Fprintf(w, "%-8s cost %.6g = link %.6g + conversion %.6g\n",
		label, p.Cost, p.LinkCost, p.ConvCost); err != nil {
		return err
	}
	for i := range p.Hops {
		h := &p.Hops[i]
		if _, err := fmt.Fprintf(w, "  hop %-2d  %d -[e%d:λ%d]-> %d   w(e%d,λ%d) = %.6g\n",
			i, h.From, h.Link, h.Lambda, h.To, h.Link, h.Lambda, h.W); err != nil {
			return err
		}
		if h.Conv != nil {
			if _, err := fmt.Fprintf(w, "          conv at node %d: λ%d→λ%d   c_%d(λ%d,λ%d) = %.6g\n",
				h.Conv.Node, h.Conv.From, h.Conv.To, h.Conv.Node, h.Conv.From, h.Conv.To, h.Conv.Cost); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteText renders the human-readable report.
func (r *Report) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "request  %d → %d via %s", r.S, r.T, r.Algorithm); err != nil {
		return err
	}
	if r.Req > 0 {
		if _, err := fmt.Fprintf(w, "  (trace req %d)", r.Req); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	if err := writePath(w, "primary", &r.Primary); err != nil {
		return err
	}
	if r.Backup != nil {
		if err := writePath(w, "backup", r.Backup); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "pair     cost %.6g (router reported %.6g)\n", r.PairCost, r.ReportedCost); err != nil {
		return err
	}
	if r.NaiveCost != nil {
		if _, err := fmt.Fprintf(w, "         first-fit (unrefined) cost %.6g — refinement saved %.6g\n",
			*r.NaiveCost, *r.NaiveCost-r.ReportedCost); err != nil {
			return err
		}
	}
	if r.Threshold > 0 {
		if _, err := fmt.Fprintf(w, "         MinCog threshold ϑ = %.6g after %d rounds\n", r.Threshold, r.Iterations); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "load     path load %.6g\n", r.PathLoad); err != nil {
		return err
	}
	switch {
	case !r.Bound.Checked:
		if _, err := fmt.Fprintln(w, "bound    no cost-weighted auxiliary pair — Lemma 2 bound not applicable"); err != nil {
			return err
		}
	case r.Bound.Holds:
		if _, err := fmt.Fprintf(w, "bound    pair cost %.6g ≤ ω %.6g (Lemma 2 holds; ω ≤ 2·OPT under §3.3 ⇒ factor-2 certified)\n",
			r.Bound.PairCost, r.Bound.AuxWeight); err != nil {
			return err
		}
	default:
		if _, err := fmt.Fprintf(w, "bound    VIOLATED: pair cost %.6g > ω %.6g (slack %.3g)\n",
			r.Bound.PairCost, r.Bound.AuxWeight, r.Bound.Slack); err != nil {
			return err
		}
	}
	if len(r.Phases) > 0 {
		if _, err := fmt.Fprintln(w, "phases"); err != nil {
			return err
		}
		for _, ph := range r.Phases {
			if _, err := fmt.Fprintf(w, "  %-16s %9.1fµs ×%-3d %s\n",
				ph.Name, ph.Seconds*1e6, ph.Count, ph.Term); err != nil {
				return err
			}
		}
	}
	return nil
}
