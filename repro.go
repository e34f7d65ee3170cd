// Package repro is the public API of a full reproduction of
// "Robust Routing in Wide-Area WDM Networks" (Weifa Liang, IPPS 2001).
//
// The paper's problem: given a connection request (s, t) in a
// wavelength-routed WDM network with per-(link, wavelength) costs and
// per-node wavelength-conversion costs, establish two edge-disjoint
// semilightpaths — a primary route and a pre-reserved backup that survives
// any single link failure — while minimising either the pair's total cost
// (§3) or both the network load and the cost (§4).
//
// The facade re-exports the building blocks:
//
//   - Network modelling (wdm): NewNetwork, AddLink/AddUniformLink,
//     converters, wavelength reservation, the network load ρ of Eq. 2.
//   - Routing (core): ApproxMinCost (§3.3, 2-approximation), MinLoad
//     (§4.1 Find_Two_Paths_MinCog, load ratio < 3), MinLoadCost (§4.2
//     two-phase), TwoStepMinCost (naive baseline).
//   - Connections (conns): NewConnectionTable, the one state machine that
//     reserves a route's primary and backup together and releases them.
//   - Exact solvers (exact): the §3.1 integer program and an exhaustive
//     oracle for small instances.
//   - Topologies (topo): NSFNET, ARPA2, Ring, Grid, Waxman, Complete.
//   - Dynamic traffic (workload, netsim): Poisson request streams, the
//     event-driven simulator with failure injection, active/passive
//     restoration, and reconfiguration accounting.
//
// Quickstart:
//
//	net := repro.NSFNET(repro.TopoConfig{W: 8})
//	tab := repro.NewConnectionTable(net)
//	route, ok := repro.ApproxMinCost(net, 0, 13, nil)
//	if ok {
//		_, _ = tab.Admit(1, 0, 13, route.Pair()) // reserve primary + backup
//	}
package repro

import (
	"repro/internal/conns"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/lightpath"
	"repro/internal/netsim"
	"repro/internal/provision"
	"repro/internal/reconfig"
	"repro/internal/topo"
	"repro/internal/topofile"
	"repro/internal/wdm"
	"repro/internal/workload"
)

// Network is the WDM network G(V, E, Λ) of §2.
type Network = wdm.Network

// Link is a directed fiber link with its wavelength inventory.
type Link = wdm.Link

// Wavelength indexes a channel in Λ.
type Wavelength = wdm.Wavelength

// Semilightpath is a route with per-link wavelength assignment (Eq. 1 cost).
type Semilightpath = wdm.Semilightpath

// Hop is one (link, wavelength) step of a semilightpath.
type Hop = wdm.Hop

// Converter models a node's wavelength-conversion switch.
type Converter = wdm.Converter

// NewNetwork returns an empty network with n nodes and w wavelengths.
func NewNetwork(n, w int) *Network { return wdm.NewNetwork(n, w) }

// NewFullConverter allows any conversion at a uniform cost (§3.3
// assumption (i)).
func NewFullConverter(w int, cost float64) Converter { return wdm.NewFullConverter(w, cost) }

// NewNoConverter forbids conversion (wavelength continuity).
func NewNoConverter() Converter { return wdm.NoConverter{} }

// NewRangeConverter allows conversion within a wavelength-index distance k.
func NewRangeConverter(k int, unitCost float64) Converter {
	return wdm.NewRangeConverter(k, unitCost)
}

// NewMatrixConverter uses an explicit conversion-cost table (§2); negative
// entries mark disallowed conversions.
func NewMatrixConverter(w int, table [][]float64) Converter {
	return wdm.NewMatrixConverter(w, table)
}

// RouteOptions tunes the approximate routers.
type RouteOptions = core.Options

// Route is a routed request: primary + backup plus diagnostics.
type Route = core.Result

// Router is a reusable routing engine: it keeps its auxiliary-graph
// skeletons and disjoint-path search workspaces across calls, so a long-lived
// caller routes requests without per-request graph construction or
// allocation. The one-shot functions below are equivalent to a fresh Router
// per call. A Router is not safe for concurrent use; give each goroutine its
// own.
type Router = core.Router

// NewRouter returns a reusable Router with the given options (nil for
// defaults).
func NewRouter(opts *RouteOptions) *Router { return core.NewRouter(opts) }

// ApproxMinCost finds two edge-disjoint semilightpaths minimising the cost
// sum (§3.3): auxiliary graph + Suurballe + Lemma 2 refinement. It is a
// 2-approximation under the paper's assumptions (Theorem 2).
func ApproxMinCost(net *Network, s, t int, opts *RouteOptions) (*Route, bool) {
	return core.NewRouter(opts).ApproxMinCost(net, s, t)
}

// MinLoad finds two edge-disjoint semilightpaths minimising the network load
// via the Find_Two_Paths_MinCog threshold search (§4.1, Theorem 3).
func MinLoad(net *Network, s, t int, opts *RouteOptions) (*Route, bool) {
	return core.NewRouter(opts).MinLoad(net, s, t)
}

// MinLoadCost minimises load first, then cost within the found load bound
// (§4.2).
func MinLoadCost(net *Network, s, t int, opts *RouteOptions) (*Route, bool) {
	return core.NewRouter(opts).MinLoadCost(net, s, t)
}

// TwoStepMinCost is the naive shortest-then-remove baseline.
func TwoStepMinCost(net *Network, s, t int, opts *RouteOptions) (*Route, bool) {
	return core.NewRouter(opts).TwoStepMinCost(net, s, t)
}

// MinCostNodeDisjoint finds an internally node-disjoint primary/backup pair —
// the stronger §1 protection discipline that survives single node failures.
func MinCostNodeDisjoint(net *Network, s, t int, opts *RouteOptions) (*Route, bool) {
	return core.NewRouter(opts).ApproxMinCostNodeDisjoint(net, s, t)
}

// OptimalSemilightpath returns a single minimum-cost semilightpath (the
// Liang–Shen layered-graph algorithm the refinement step builds on).
func OptimalSemilightpath(net *Network, s, t int) (*Semilightpath, float64, bool) {
	return lightpath.Optimal(net, s, t, nil)
}

// ExactSolution is an exact optimum from the §3.1 solvers.
type ExactSolution = exact.Solution

// ExactILP solves the paper's Eq. 3–21 integer program (small instances).
func ExactILP(net *Network, s, t int) (*ExactSolution, bool) {
	sol, _, ok := exact.ILP(net, s, t, exact.ILPConfig{})
	return sol, ok
}

// ExactExhaustive solves the problem by route-pair enumeration (small
// instances).
func ExactExhaustive(net *Network, s, t int) (*ExactSolution, bool) {
	sol, _, ok := exact.Exhaustive(net, s, t, 0)
	return sol, ok
}

// TopoConfig sets wavelengths and costs for the topology generators.
type TopoConfig = topo.Config

// NSFNET returns the 14-node NSFNET backbone.
func NSFNET(c TopoConfig) *Network { return topo.NSFNET(c) }

// ARPA2 returns a 20-node ARPA-2-style backbone.
func ARPA2(c TopoConfig) *Network { return topo.ARPA2(c) }

// Ring returns a bidirectional n-node ring.
func Ring(n int, c TopoConfig) *Network { return topo.Ring(n, c) }

// Grid returns an r×cols bidirectional mesh.
func Grid(r, cols int, c TopoConfig) *Network { return topo.Grid(r, cols, c) }

// Waxman returns a random Waxman graph (seeded, biconnected).
func Waxman(n int, alpha, beta float64, seed int64, c TopoConfig) *Network {
	return topo.Waxman(n, alpha, beta, seed, c)
}

// Complete returns the complete graph on n nodes.
func Complete(n int, c TopoConfig) *Network { return topo.Complete(n, c) }

// Request is a dynamic connection request.
type Request = workload.Request

// PoissonConfig parameterises the Poisson request generator.
type PoissonConfig = workload.PoissonConfig

// HotPair is a skewed-traffic endpoint pair for PoissonConfig.HotPairs.
type HotPair = workload.Pair

// Poisson generates a seeded Poisson request stream (§2 traffic model).
func Poisson(c PoissonConfig) []Request { return workload.Poisson(c) }

// TrafficMatrix weights request rates per node pair.
type TrafficMatrix = workload.Matrix

// MatrixConfig parameterises matrix-driven request generation.
type MatrixConfig = workload.MatrixConfig

// Holding-time distributions for MatrixPoisson.
const (
	HoldingExponential   = workload.HoldingExponential
	HoldingDeterministic = workload.HoldingDeterministic
	HoldingPareto        = workload.HoldingPareto
)

// NewUniformMatrix returns the all-ones traffic matrix.
func NewUniformMatrix(n int) *TrafficMatrix { return workload.NewUniformMatrix(n) }

// NewGravityMatrix returns a gravity-model matrix (rates ∝ pop[s]·pop[d]).
func NewGravityMatrix(pop []float64) *TrafficMatrix { return workload.NewGravityMatrix(pop) }

// MatrixPoisson generates Poisson arrivals with matrix-weighted endpoints
// and a selectable holding-time distribution.
func MatrixPoisson(c MatrixConfig) []Request { return workload.MatrixPoisson(c) }

// Sim is the event-driven dynamic-traffic simulator.
type Sim = netsim.Sim

// SimConfig parameterises a simulation run.
type SimConfig = netsim.Config

// SimMetrics aggregates a simulation run.
type SimMetrics = netsim.Metrics

// Routing algorithms for the simulator.
const (
	AlgoMinCost     = core.MinCost
	AlgoMinLoad     = core.MinLoad
	AlgoMinLoadCost = core.MinLoadCost
	AlgoTwoStep     = core.TwoStep
)

// Restoration disciplines for the simulator.
const (
	RestoreActive  = netsim.Active
	RestorePassive = netsim.Passive
)

// NewSim returns a simulator over a private clone of the network.
func NewSim(net *Network, cfg SimConfig) *Sim { return netsim.New(net, cfg) }

// Demand is one static-provisioning request.
type Demand = provision.Demand

// ProvisionConfig tunes the static provisioner.
type ProvisionConfig = provision.Config

// ProvisionResult summarises a provisioning run.
type ProvisionResult = provision.Result

// Static-provisioning demand orderings; ProvisionConfig.Algorithm takes the
// Algo* routing algorithms.
const (
	OrderInput         = provision.InOrder
	OrderLongestFirst  = provision.LongestFirst
	OrderShortestFirst = provision.ShortestFirst
)

// Provision routes a batch of static demands on the network (offline
// fault-tolerant design), reserving capacity for every placed pair. The
// result's Table owns the network from then on.
func Provision(net *Network, demands []Demand, cfg ProvisionConfig) *ProvisionResult {
	return provision.Provision(net, demands, cfg)
}

// ConnectionTable is a network plus its live connections, the one state
// machine through which connections reserve, move and release channels:
// Admit(id, s, t, route.Pair()) reserves a route's primary and backup
// together (or neither), Teardown(id) releases them. ProvisionResult.Table
// is one.
type ConnectionTable = conns.Table[struct{}]

// NewConnectionTable returns an empty connection table that owns net: from
// then on channels change only through the table. Route on net (or
// tab.Network(), the same network) and admit the result.
func NewConnectionTable(net *Network) *ConnectionTable { return conns.New[struct{}](net) }

// ReconfigResult reports a reconfiguration run.
type ReconfigResult = reconfig.Result

// Reoptimize performs a full network reconfiguration: connections on the
// most loaded links are re-routed with the load-minimising router until the
// network load ρ stops improving — the frozen-network operation the §4
// load-aware routing reduces the need for.
func Reoptimize(tab *ConnectionTable) *ReconfigResult {
	return reconfig.Optimize(tab)
}

// LoadTopology reads a network from the JSON interchange format.
func LoadTopology(path string) (*Network, error) { return topofile.Load(path) }

// SaveTopology writes a network to the JSON interchange format.
func SaveTopology(path string, net *Network, conv topofile.ConverterSpec) error {
	return topofile.Save(path, topofile.Describe(net, conv))
}
