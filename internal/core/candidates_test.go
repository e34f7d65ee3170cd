package core

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/topo"
)

// TestCandidateTablePinned fingerprints every ordered pair's candidate routes
// of the NSFNET W=8, k=4 table: the Suurballe pair, then the Yen paths with
// their Dijkstra partners, in table order. Any change to the shortest-path
// kernels the table is generated with that alters a single route changes the
// fingerprint.
func TestCandidateTablePinned(t *testing.T) {
	const (
		wantPairs = 554
		wantHash  = uint64(0xeeadd2f733c00ba3)
	)
	tab := NewCandidateTable(topo.NSFNET(topo.Config{W: 8}), 4)
	h := fnv.New64a()
	pairs := 0
	for s := 0; s < tab.n; s++ {
		for d := 0; d < tab.n; d++ {
			for _, cp := range tab.lookup(s, d) {
				fmt.Fprintf(h, "%d>%d %v|%v;", s, d, cp.route1, cp.route2)
				pairs++
			}
		}
	}
	if pairs != wantPairs || h.Sum64() != wantHash {
		t.Fatalf("candidate table: %d pairs, fingerprint %#x; pinned %d pairs, %#x", pairs, h.Sum64(), wantPairs, wantHash)
	}
}
