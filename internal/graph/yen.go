package graph

import (
	"sort"
)

// Yen computes up to K shortest loopless (vertex-simple) paths from s to t
// over the enabled edges, in non-decreasing weight order, using Yen's
// deviation algorithm with Dijkstra as the spur oracle. Edge weights must be
// non-negative. It returns fewer than K paths when the graph does not
// contain them.
func (g *Graph) Yen(s, t, K int) [][]int {
	if K <= 0 || s == t {
		return nil
	}
	var ws Workspace
	g.DijkstraInto(&ws, s)
	first, ok := ws.AppendPathTo(nil, t, g)
	if !ok {
		return nil
	}
	A := [][]int{first}

	type candidate struct {
		path   []int
		weight float64
	}
	var B []candidate
	seen := map[string]bool{pathKey(A[0]): true}

	// Scratch tracking of temporarily disabled edges.
	var disabled []int
	disable := func(id int) {
		if !g.Disabled(id) {
			g.Disable(id)
			disabled = append(disabled, id)
		}
	}
	restore := func() {
		for _, id := range disabled {
			g.Enable(id)
		}
		disabled = disabled[:0]
	}

	for k := 1; k < K; k++ {
		prev := A[k-1]
		// Nodes along prev: spur node i is the head of the i-th prefix.
		spurNode := s
		for i := 0; i <= len(prev)-1; i++ {
			rootPath := prev[:i]
			// Remove edges that would recreate an already-accepted path
			// with the same root.
			for _, accepted := range A {
				if len(accepted) > i && samePrefix(accepted[:i], rootPath) {
					disable(accepted[i])
				}
			}
			// Remove root-path vertices (except the spur node) by
			// disabling all their incident edges.
			for _, id := range rootPath {
				v := g.Edge(id).From
				if v == spurNode {
					continue
				}
				for _, e := range g.Out(v) {
					disable(e)
				}
				for _, e := range g.In(v) {
					disable(e)
				}
			}
			g.DijkstraInto(&ws, spurNode)
			// The candidate is the root path followed by the spur path.
			if total, ok := ws.AppendPathTo(append([]int(nil), rootPath...), t, g); ok {
				key := pathKey(total)
				if !seen[key] {
					seen[key] = true
					B = append(B, candidate{path: total, weight: g.PathWeight(total)})
				}
			}
			restore()
			if i < len(prev) {
				spurNode = g.Edge(prev[i]).To
			}
		}
		if len(B) == 0 {
			break
		}
		sort.SliceStable(B, func(a, b int) bool { return B[a].weight < B[b].weight })
		A = append(A, B[0].path)
		B = B[1:]
	}
	return A
}

func samePrefix(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func pathKey(path []int) string {
	// Compact byte encoding of the edge-ID sequence.
	buf := make([]byte, 0, len(path)*4)
	for _, id := range path {
		buf = append(buf, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	return string(buf)
}
