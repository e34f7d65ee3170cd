// Package pq provides the priority queue tuned for shortest-path workloads:
// an indexed binary min-heap with decrease-key over a dense integer key
// space. The paper's complexity analysis assumes Fibonacci heaps
// [Fredman–Tarjan 1987]; the binary heap has the same practical asymptotics
// for Dijkstra on the graph sizes a wide-area WDM network produces.
package pq

// IndexedHeap is a binary min-heap over items identified by integers in
// [0, n). Each item has a float64 priority. DecreaseKey, Contains, and
// Remove are O(log n) / O(1) thanks to the position index.
//
// The zero value is not usable; call NewIndexedHeap.
type IndexedHeap struct {
	heap []int     // heap[i] = item id at heap position i
	pos  []int     // pos[id] = heap position of id, or -1
	prio []float64 // prio[id] = current priority of id
}

// NewIndexedHeap returns an empty heap over ids in [0, n).
func NewIndexedHeap(n int) *IndexedHeap {
	h := &IndexedHeap{
		heap: make([]int, 0, n),
		pos:  make([]int, n),
		prio: make([]float64, n),
	}
	for i := range h.pos {
		h.pos[i] = -1
	}
	return h
}

// Len returns the number of items currently in the heap.
func (h *IndexedHeap) Len() int { return len(h.heap) }

// Empty reports whether the heap has no items.
func (h *IndexedHeap) Empty() bool { return len(h.heap) == 0 }

// Contains reports whether id is currently in the heap.
func (h *IndexedHeap) Contains(id int) bool { return h.pos[id] >= 0 }

// Priority returns the current priority of id. The result is meaningful only
// if Contains(id) or if id was previously popped.
func (h *IndexedHeap) Priority(id int) float64 { return h.prio[id] }

// Push inserts id with the given priority. It panics if id is already
// present.
func (h *IndexedHeap) Push(id int, priority float64) {
	if h.pos[id] >= 0 {
		panic("pq: Push of item already in heap")
	}
	h.prio[id] = priority
	h.pos[id] = len(h.heap)
	//wdmlint:ignore hotalloc heap growth to peak size; amortizes to zero once warm
	h.heap = append(h.heap, id)
	h.up(len(h.heap) - 1)
}

// Pop removes and returns the item with minimum priority along with that
// priority. It panics on an empty heap.
func (h *IndexedHeap) Pop() (id int, priority float64) {
	if len(h.heap) == 0 {
		panic("pq: Pop from empty heap")
	}
	id = h.heap[0]
	priority = h.prio[id]
	last := len(h.heap) - 1
	h.swap(0, last)
	h.heap = h.heap[:last]
	h.pos[id] = -1
	if last > 0 {
		h.down(0)
	}
	return id, priority
}

// Peek returns the minimum item without removing it.
func (h *IndexedHeap) Peek() (id int, priority float64) {
	if len(h.heap) == 0 {
		panic("pq: Peek on empty heap")
	}
	id = h.heap[0]
	return id, h.prio[id]
}

// DecreaseKey lowers the priority of id to priority. It panics if id is not
// in the heap or the new priority is greater than the current one.
func (h *IndexedHeap) DecreaseKey(id int, priority float64) {
	p := h.pos[id]
	if p < 0 {
		panic("pq: DecreaseKey of item not in heap")
	}
	if priority > h.prio[id] {
		panic("pq: DecreaseKey with larger priority")
	}
	h.prio[id] = priority
	h.up(p)
}

// PushOrDecrease inserts id if absent, or lowers its key if the new priority
// is smaller. It returns true if the heap changed. This is the common
// Dijkstra relaxation helper.
func (h *IndexedHeap) PushOrDecrease(id int, priority float64) bool {
	if h.pos[id] < 0 {
		h.Push(id, priority)
		return true
	}
	if priority < h.prio[id] {
		h.DecreaseKey(id, priority)
		return true
	}
	return false
}

// Remove deletes id from the heap. It panics if absent.
func (h *IndexedHeap) Remove(id int) {
	p := h.pos[id]
	if p < 0 {
		panic("pq: Remove of item not in heap")
	}
	last := len(h.heap) - 1
	h.swap(p, last)
	h.heap = h.heap[:last]
	h.pos[id] = -1
	if p < last {
		h.up(p)
		h.down(p)
	}
}

// Cap returns the size of the id space [0, n) the heap accepts.
func (h *IndexedHeap) Cap() int { return len(h.pos) }

// Grow extends the id space to [0, n), keeping current contents. It is a
// no-op when the heap already accepts n ids. Together with Reset this lets a
// single heap be reused across graphs of different sizes without
// re-allocating (the shortest-path workspaces rely on it).
func (h *IndexedHeap) Grow(n int) {
	for len(h.pos) < n {
		h.pos = append(h.pos, -1)
		h.prio = append(h.prio, 0)
	}
}

// Reset empties the heap, keeping capacity. Priorities of previously popped
// items are no longer meaningful after Reset.
func (h *IndexedHeap) Reset() {
	for _, id := range h.heap {
		h.pos[id] = -1
	}
	h.heap = h.heap[:0]
}

func (h *IndexedHeap) swap(i, j int) {
	h.heap[i], h.heap[j] = h.heap[j], h.heap[i]
	h.pos[h.heap[i]] = i
	h.pos[h.heap[j]] = j
}

func (h *IndexedHeap) less(i, j int) bool {
	return h.prio[h.heap[i]] < h.prio[h.heap[j]]
}

func (h *IndexedHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *IndexedHeap) down(i int) {
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
