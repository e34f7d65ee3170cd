// Package disjoint finds a pair of edge-disjoint directed paths of minimum
// total weight — Suurballe's algorithm [21], which the paper's
// Find_Two_Paths procedure instantiates. Workspace.Suurballe is the one
// implementation (Dijkstra with potentials, the paper's O(m log n) term);
// the same Workspace runs the incremental two-path flow search behind the
// MinCog bottleneck pass (StartFlow, ExtendFlow).
package disjoint

// Pair is a pair of edge-disjoint paths from s to t, each a sequence of
// edge IDs of the input graph, plus their combined weight.
type Pair struct {
	Path1  []int
	Path2  []int
	Weight float64
}
