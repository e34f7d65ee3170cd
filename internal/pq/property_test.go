package pq

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// refHeap is the reference the indexed heap is checked against: queued value
// → priority, with a linear min-scan per peek.
type refHeap map[int]float64

func (r refHeap) peek() (int, float64) {
	best, bp := -1, math.Inf(1)
	for v, p := range r {
		if p < bp {
			best, bp = v, p
		}
	}
	return best, bp
}

func (r refHeap) pop() (int, float64) {
	v, p := r.peek()
	delete(r, v)
	return v, p
}

// TestHeapsAgreeOnRandomStreams drives the indexed binary heap and a
// map-plus-min-scan reference with the same random push/decrease/pop stream
// and demands identical (value, priority) pop sequences. Priorities are
// drawn unique so ties cannot make the minimum ambiguous; decreases always go
// strictly below the current key and are skipped on a collision, staying
// unique.
func TestHeapsAgreeOnRandomStreams(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 64
		ih := NewIndexedHeap(n)
		ref := refHeap{}
		used := map[float64]bool{}
		draw := func() float64 {
			for {
				p := rng.Float64() * 100
				if !used[p] {
					used[p] = true
					return p
				}
			}
		}
		var inHeap []int
		for op := 0; op < 400; op++ {
			switch r := rng.Intn(10); {
			case r < 4: // push a value not currently queued
				id := rng.Intn(n)
				if _, ok := ref[id]; ok {
					continue
				}
				p := draw()
				ih.Push(id, p)
				ref[id] = p
				inHeap = append(inHeap, id)
			case r < 7: // decrease a random queued key
				if len(inHeap) == 0 {
					continue
				}
				id := inHeap[rng.Intn(len(inHeap))]
				p := ref[id] * rng.Float64()
				if used[p] {
					continue
				}
				used[p] = true
				if !ih.PushOrDecrease(id, p) {
					t.Logf("decrease of %d to %g left the heap unchanged", id, p)
					return false
				}
				ref[id] = p
			default: // pop
				if ih.Empty() != (len(ref) == 0) {
					t.Logf("Empty diverged: indexed %v, reference holds %d", ih.Empty(), len(ref))
					return false
				}
				if ih.Empty() {
					continue
				}
				iv, ip := ih.Pop()
				pv, pp := ref.pop()
				if iv != pv || ip != pp {
					t.Logf("Pop diverged: indexed (%d,%g), reference (%d,%g)", iv, ip, pv, pp)
					return false
				}
				for k, id := range inHeap {
					if id == iv {
						inHeap = append(inHeap[:k], inHeap[k+1:]...)
						break
					}
				}
			}
		}
		// Drain: the full remaining sequences must match and come out in
		// strictly increasing priority order.
		last := -1.0
		for !ih.Empty() {
			iv, ip := ih.Pop()
			pv, pp := ref.pop()
			if iv != pv || ip != pp {
				t.Logf("drain diverged: indexed (%d,%g), reference (%d,%g)", iv, ip, pv, pp)
				return false
			}
			if ip <= last {
				t.Logf("drain not sorted: %g after %g", ip, last)
				return false
			}
			last = ip
		}
		return len(ref) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
