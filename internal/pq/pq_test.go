package pq

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestIndexedHeapBasic(t *testing.T) {
	h := NewIndexedHeap(10)
	if !h.Empty() {
		t.Fatal("new heap not empty")
	}
	h.Push(3, 5.0)
	h.Push(1, 2.0)
	h.Push(7, 9.0)
	id, p := h.Pop()
	if id != 1 || p != 2.0 {
		t.Fatalf("Pop = (%d, %g)", id, p)
	}
	h.Push(1, 4.0) // a popped id may be pushed again
	for _, want := range []int{1, 3, 7} {
		if id, _ := h.Pop(); id != want {
			t.Fatalf("Pop = %d, want %d", id, want)
		}
	}
	if !h.Empty() {
		t.Fatal("heap should be empty")
	}
}

// TestIndexedHeapDecreaseKey lowers a queued key through PushOrDecrease, the
// relaxation Dijkstra performs, and checks the item moves to the front.
func TestIndexedHeapDecreaseKey(t *testing.T) {
	h := NewIndexedHeap(5)
	h.Push(0, 10)
	h.Push(1, 20)
	h.Push(2, 30)
	h.PushOrDecrease(2, 5)
	if id, p := h.Pop(); id != 2 || p != 5 {
		t.Fatalf("Pop after decrease = (%d, %g)", id, p)
	}
}

func TestIndexedHeapPushOrDecrease(t *testing.T) {
	h := NewIndexedHeap(3)
	if !h.PushOrDecrease(0, 10) {
		t.Fatal("initial PushOrDecrease should change heap")
	}
	if h.PushOrDecrease(0, 15) {
		t.Fatal("larger priority should not change heap")
	}
	if !h.PushOrDecrease(0, 3) {
		t.Fatal("smaller priority should change heap")
	}
	if _, p := h.Pop(); p != 3 {
		t.Fatalf("priority = %g, want 3", p)
	}
}

func TestIndexedHeapReset(t *testing.T) {
	h := NewIndexedHeap(4)
	h.Push(0, 1)
	h.Push(1, 2)
	h.Reset()
	if !h.Empty() {
		t.Fatal("Reset did not clear")
	}
	h.Push(1, 9) // must not panic: Reset forgot both ids
	h.Push(0, 8)
	if id, _ := h.Pop(); id != 0 {
		t.Fatal("heap unusable after Reset")
	}
}

func TestIndexedHeapPanics(t *testing.T) {
	cases := map[string]func(){
		"PopEmpty":   func() { NewIndexedHeap(1).Pop() },
		"DoublePush": func() { h := NewIndexedHeap(2); h.Push(0, 1); h.Push(0, 2) },
	}
	for name, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic", name)
				}
			}()
			fn()
		}()
	}
}

// Property: popping everything yields priorities in non-decreasing order.
func TestQuickIndexedHeapSorts(t *testing.T) {
	f := func(prios []float64) bool {
		if len(prios) > 512 {
			prios = prios[:512]
		}
		for i, p := range prios {
			if p != p { // NaN breaks any comparison sort; skip
				prios[i] = 0
			}
		}
		h := NewIndexedHeap(len(prios))
		for i, p := range prios {
			h.Push(i, p)
		}
		prev := math.Inf(-1)
		for !h.Empty() {
			_, p := h.Pop()
			if p < prev {
				return false
			}
			prev = p
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Randomized cross-check of the indexed heap against a reference sort, with
// interleaved decrease-keys.
func TestHeapsAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		prios := make([]float64, n)
		for i := range prios {
			prios[i] = rng.Float64() * 100
		}
		ih := NewIndexedHeap(n)
		for i, p := range prios {
			ih.Push(i, p)
		}
		// Random decrease-keys.
		for k := 0; k < n/2; k++ {
			i := rng.Intn(n)
			np := prios[i] * rng.Float64()
			prios[i] = np
			ih.PushOrDecrease(i, np)
		}
		sorted := append([]float64(nil), prios...)
		sort.Float64s(sorted)
		for _, want := range sorted {
			if _, p := ih.Pop(); p != want {
				t.Fatalf("trial %d: pop %g, want %g", trial, p, want)
			}
		}
	}
}

func BenchmarkIndexedHeapDijkstraPattern(b *testing.B) {
	const n = 4096
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := NewIndexedHeap(n)
		for v := 0; v < n; v++ {
			h.Push(v, rng.Float64())
		}
		for !h.Empty() {
			id, p := h.Pop()
			_ = id
			_ = p
		}
	}
}
