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
	if !h.Empty() || h.Len() != 0 {
		t.Fatal("new heap not empty")
	}
	h.Push(3, 5.0)
	h.Push(1, 2.0)
	h.Push(7, 9.0)
	if h.Len() != 3 {
		t.Fatalf("Len = %d", h.Len())
	}
	if id, p := h.Peek(); id != 1 || p != 2.0 {
		t.Fatalf("Peek = (%d, %g)", id, p)
	}
	id, p := h.Pop()
	if id != 1 || p != 2.0 {
		t.Fatalf("Pop = (%d, %g)", id, p)
	}
	if h.Contains(1) {
		t.Fatal("popped item still contained")
	}
	if id, _ := h.Pop(); id != 3 {
		t.Fatalf("second Pop = %d", id)
	}
	if id, _ := h.Pop(); id != 7 {
		t.Fatalf("third Pop = %d", id)
	}
	if !h.Empty() {
		t.Fatal("heap should be empty")
	}
}

func TestIndexedHeapDecreaseKey(t *testing.T) {
	h := NewIndexedHeap(5)
	h.Push(0, 10)
	h.Push(1, 20)
	h.Push(2, 30)
	h.DecreaseKey(2, 5)
	if id, p := h.Pop(); id != 2 || p != 5 {
		t.Fatalf("Pop after DecreaseKey = (%d, %g)", id, p)
	}
	if h.Priority(2) != 5 {
		t.Fatalf("Priority(2) = %g", h.Priority(2))
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

func TestIndexedHeapRemove(t *testing.T) {
	h := NewIndexedHeap(5)
	for i := 0; i < 5; i++ {
		h.Push(i, float64(5-i))
	}
	h.Remove(4) // priority 1, the minimum
	if id, _ := h.Pop(); id != 3 {
		t.Fatalf("Pop after Remove = %d, want 3", id)
	}
	h.Remove(0)
	var got []int
	for !h.Empty() {
		id, _ := h.Pop()
		got = append(got, id)
	}
	if len(got) != 2 || got[0] != 2 || got[1] != 1 {
		t.Fatalf("remaining order = %v", got)
	}
}

func TestIndexedHeapReset(t *testing.T) {
	h := NewIndexedHeap(4)
	h.Push(0, 1)
	h.Push(1, 2)
	h.Reset()
	if !h.Empty() || h.Contains(0) || h.Contains(1) {
		t.Fatal("Reset did not clear")
	}
	h.Push(0, 9) // must not panic
	if id, _ := h.Pop(); id != 0 {
		t.Fatal("heap unusable after Reset")
	}
}

func TestIndexedHeapPanics(t *testing.T) {
	cases := map[string]func(){
		"PopEmpty":         func() { NewIndexedHeap(1).Pop() },
		"PeekEmpty":        func() { NewIndexedHeap(1).Peek() },
		"DoublePush":       func() { h := NewIndexedHeap(2); h.Push(0, 1); h.Push(0, 2) },
		"DecreaseAbsent":   func() { NewIndexedHeap(2).DecreaseKey(0, 1) },
		"DecreaseIncrease": func() { h := NewIndexedHeap(2); h.Push(0, 1); h.DecreaseKey(0, 5) },
		"RemoveAbsent":     func() { NewIndexedHeap(2).Remove(0) },
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
			ih.DecreaseKey(i, np)
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
