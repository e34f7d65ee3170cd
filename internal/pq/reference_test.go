package pq

import (
	"math"
	"math/rand"
	"testing"
)

// swapHeap is the reference for IndexedHeap's pop order: the textbook
// indexed binary heap whose slots hold bare ids, whose comparisons read
// prio[heap[i]], and whose sifts swap neighbours. IndexedHeap must make the
// same comparisons in the same order, so every pop, ties included, matches.
type swapHeap struct {
	heap []int
	pos  []int
	prio []float64
}

func newSwapHeap(n int) *swapHeap {
	h := &swapHeap{heap: make([]int, 0, n), pos: make([]int, n), prio: make([]float64, n)}
	for i := range h.pos {
		h.pos[i] = -1
	}
	return h
}

func (h *swapHeap) contains(id int) bool { return h.pos[id] >= 0 }

func (h *swapHeap) push(id int, priority float64) {
	h.prio[id] = priority
	h.pos[id] = len(h.heap)
	h.heap = append(h.heap, id)
	h.up(len(h.heap) - 1)
}

func (h *swapHeap) pop() (int, float64) {
	id := h.heap[0]
	last := len(h.heap) - 1
	h.swap(0, last)
	h.heap = h.heap[:last]
	h.pos[id] = -1
	if last > 0 {
		h.down(0)
	}
	return id, h.prio[id]
}

func (h *swapHeap) pushOrDecrease(id int, priority float64) bool {
	if h.pos[id] < 0 {
		h.push(id, priority)
		return true
	}
	if priority < h.prio[id] {
		h.prio[id] = priority
		h.up(h.pos[id])
		return true
	}
	return false
}

func (h *swapHeap) reset() {
	for _, id := range h.heap {
		h.pos[id] = -1
	}
	h.heap = h.heap[:0]
}

func (h *swapHeap) swap(i, j int) {
	h.heap[i], h.heap[j] = h.heap[j], h.heap[i]
	h.pos[h.heap[i]] = i
	h.pos[h.heap[j]] = j
}

func (h *swapHeap) less(i, j int) bool { return h.prio[h.heap[i]] < h.prio[h.heap[j]] }

func (h *swapHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *swapHeap) down(i int) {
	n := len(h.heap)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.less(l, smallest) {
			smallest = l
		}
		if r < n && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.swap(i, smallest)
		i = smallest
	}
}

// sameBits reports whether two keys are the same float64, NaN included.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestHeapMatchesSwapHeapOnTies drives IndexedHeap and the swap-based
// reference with the same tie-heavy streams of the operations Dijkstra
// issues: pushes, PushOrDecrease onto keys already queued (or onto the
// item's own key) and onto fresh keys, pops, Reset, and, in one variant, NaN
// keys, whose comparisons are all false. It demands the same (id, key) at
// every Pop and the same emptiness after every operation.
// TestHeapsAgreeOnRandomStreams draws unique keys, so only this test sees
// how ties are broken.
func TestHeapMatchesSwapHeapOnTies(t *testing.T) {
	for _, nanRate := range []float64{0, 0.05} {
		for seed := int64(1); seed <= 200; seed++ {
			rng := rand.New(rand.NewSource(seed))
			n := 1 + rng.Intn(40)
			keys := 1 + rng.Intn(6) // keys 0..keys-1: ties everywhere
			draw := func() float64 {
				if rng.Float64() < nanRate {
					return math.NaN()
				}
				return float64(rng.Intn(keys))
			}
			got, want := NewIndexedHeap(n), newSwapHeap(n)
			var queued []int // ids in the reference heap, in no order
			sync := func() {
				queued = queued[:0]
				for id := 0; id < n; id++ {
					if want.contains(id) {
						queued = append(queued, id)
					}
				}
			}
			for op := 0; op < 600; op++ {
				switch r := rng.Intn(20); {
				case r < 7: // push an absent id
					id := rng.Intn(n)
					if want.contains(id) {
						continue
					}
					k := draw()
					got.Push(id, k)
					want.push(id, k)
				case r < 10: // decrease onto a queued key or the item's own
					if len(queued) == 0 {
						continue
					}
					id := queued[rng.Intn(len(queued))]
					k := want.prio[queued[rng.Intn(len(queued))]]
					if rng.Intn(3) == 0 {
						k = want.prio[id]
					}
					if g, w := got.PushOrDecrease(id, k), want.pushOrDecrease(id, k); g != w {
						t.Fatalf("nan %g seed %d op %d: PushOrDecrease(%d, %g) = %v, reference %v", nanRate, seed, op, id, k, g, w)
					}
				case r < 14: // relax: push or decrease, as Dijkstra does
					id, k := rng.Intn(n), draw()
					if g, w := got.PushOrDecrease(id, k), want.pushOrDecrease(id, k); g != w {
						t.Fatalf("nan %g seed %d op %d: PushOrDecrease(%d, %g) = %v, reference %v", nanRate, seed, op, id, k, g, w)
					}
				case r < 15:
					got.Reset()
					want.reset()
				default:
					if len(want.heap) == 0 {
						continue
					}
					gi, gk := got.Pop()
					wi, wk := want.pop()
					if gi != wi || !sameBits(gk, wk) {
						t.Fatalf("nan %g seed %d op %d: Pop (%d, %g), reference (%d, %g)", nanRate, seed, op, gi, gk, wi, wk)
					}
				}
				if got.Empty() != (len(want.heap) == 0) {
					t.Fatalf("nan %g seed %d op %d: Empty %v, reference holds %d", nanRate, seed, op, got.Empty(), len(want.heap))
				}
				sync()
			}
			for len(want.heap) > 0 {
				gi, gk := got.Pop()
				wi, wk := want.pop()
				if gi != wi || !sameBits(gk, wk) {
					t.Fatalf("nan %g seed %d drain: Pop (%d, %g), reference (%d, %g)", nanRate, seed, gi, gk, wi, wk)
				}
			}
			if !got.Empty() {
				t.Fatalf("nan %g seed %d: items left after the reference drained", nanRate, seed)
			}
		}
	}
}
