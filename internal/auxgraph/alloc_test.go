//go:build !race

// Allocation-regression tests, excluded from -race runs (the detector's
// instrumentation breaks testing.AllocsPerRun accounting).
package auxgraph

import (
	"testing"

	"repro/internal/wdm"
)

// TestIncrementalReweightZeroAllocs pins the incremental-reweight budget:
// once a shared skeleton is warm, re-weighting after a single-link
// availability change must allocate nothing — the journal limits the
// per-link weight refresh to the dirty link and the filter/terminal passes
// reuse the skeleton's buffers.
func TestIncrementalReweightZeroAllocs(t *testing.T) {
	net := fig1Net()
	sk := NewSharedSkeleton(net)
	for _, k := range []Kind{Cost, Load, LoadCost} {
		sk.ReweightAt(0, 2, Params{Kind: k, Threshold: 0.5})
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := net.Use(0, 0); err != nil {
			t.Fatal(err)
		}
		sk.ReweightAt(0, 2, Params{Kind: Cost})
		sk.ReweightAt(1, 3, Params{Kind: Cost})
		if err := net.Release(0, 0); err != nil {
			t.Fatal(err)
		}
		sk.ReweightAt(0, 2, Params{Kind: LoadCost, Threshold: 0.5})
	}); n != 0 {
		t.Fatalf("warm incremental reweight allocates %v per op, want 0", n)
	}
}

// TestReweightUnchangedStateZeroAllocs pins the fully-clean fast path: with
// no state change at all between calls, a reweight (even switching the
// active terminal pair) must not allocate.
func TestReweightUnchangedStateZeroAllocs(t *testing.T) {
	net := fig1Net()
	sk := NewSharedSkeleton(net)
	sk.ReweightAt(0, 2, Params{Kind: Cost})
	sk.ReweightAt(1, 3, Params{Kind: Cost})
	if n := testing.AllocsPerRun(100, func() {
		sk.ReweightAt(0, 2, Params{Kind: Cost})
		sk.ReweightAt(1, 3, Params{Kind: Cost})
	}); n != 0 {
		t.Fatalf("clean-state reweight allocates %v per op, want 0", n)
	}
}

// TestAdmissionPassZeroAllocs pins the bottleneck pass's skeleton side: on
// a warm shared skeleton, BeginAdmit and admitting every link in groups
// allocate nothing, with a reservation (a journal-dirty link) in between —
// on the physical graph (full conversion everywhere) and on the aux graph.
func TestAdmissionPassZeroAllocs(t *testing.T) {
	for _, restricted := range []bool{false, true} {
		net := fig1Net()
		if restricted {
			net.SetConverter(1, wdm.NoConverter{})
		}
		sk := NewSharedSkeleton(net)
		sk.ReweightAt(0, 2, Params{Kind: LoadCost, Threshold: 0.5})
		links := make([]int, net.Links())
		for id := range links {
			links[id] = id
		}
		pass := func(s, t int) {
			sk.BeginAdmit(s, t)
			for lo := 0; lo < len(links); lo += 2 {
				sk.Admit(links[lo:min(lo+2, len(links))])
			}
		}
		pass(0, 2)
		if n := testing.AllocsPerRun(100, func() {
			if err := net.Use(0, 0); err != nil {
				t.Fatal(err)
			}
			pass(0, 2)
			if err := net.Release(0, 0); err != nil {
				t.Fatal(err)
			}
			pass(1, 3)
		}); n != 0 {
			t.Fatalf("warm admission pass (restricted conversion %v) allocates %v per op, want 0", restricted, n)
		}
	}
}
