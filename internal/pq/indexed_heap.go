// Package pq provides the priority queue tuned for shortest-path workloads:
// an indexed binary min-heap with decrease-key over a dense integer key
// space. The paper's complexity analysis assumes Fibonacci heaps
// [Fredman–Tarjan 1987]; the binary heap has the same practical asymptotics
// for Dijkstra on the graph sizes a wide-area WDM network produces.
package pq

// IndexedHeap is a binary min-heap over items identified by integers in
// [0, n). Each item has a float64 priority. The position index makes
// PushOrDecrease O(log n) whether it inserts or lowers a key.
//
// Each heap slot carries its item's priority next to its id, so a
// comparison reads one slot rather than chasing the id into a priority
// array, and sifting moves a hole instead of swapping: the comparisons are
// the textbook swap-based heap's, in the same order, so the pop order, ties
// included, is the same too.
//
// The zero value is not usable; call NewIndexedHeap.
type IndexedHeap struct {
	heap []slot // heap[i] = item at heap position i, with its priority
	pos  []int  // pos[id] = heap position of id, or -1
}

// slot is one heap position: an item and its current priority.
type slot struct {
	key float64
	id  int
}

// NewIndexedHeap returns an empty heap over ids in [0, n).
func NewIndexedHeap(n int) *IndexedHeap {
	h := &IndexedHeap{
		heap: make([]slot, 0, n),
		pos:  make([]int, n),
	}
	for i := range h.pos {
		h.pos[i] = -1
	}
	return h
}

// Empty reports whether the heap has no items.
func (h *IndexedHeap) Empty() bool { return len(h.heap) == 0 }

// Push inserts id with the given priority. It panics if id is already
// present.
func (h *IndexedHeap) Push(id int, priority float64) {
	if h.pos[id] >= 0 {
		panic("pq: Push of item already in heap")
	}
	i := len(h.heap)
	//wdmlint:ignore hotalloc heap growth to peak size; amortizes to zero once warm
	h.heap = append(h.heap, slot{})
	h.up(i, slot{priority, id})
}

// Pop removes and returns the item with minimum priority along with that
// priority. It panics on an empty heap.
func (h *IndexedHeap) Pop() (id int, priority float64) {
	if len(h.heap) == 0 {
		panic("pq: Pop from empty heap")
	}
	top := h.heap[0]
	last := len(h.heap) - 1
	x := h.heap[last]
	h.heap = h.heap[:last]
	h.pos[top.id] = -1
	if last > 0 {
		h.down(0, x)
	}
	return top.id, top.key
}

// PushOrDecrease inserts id if absent, or lowers its key if the new priority
// is smaller. It returns true if the heap changed. This is the common
// Dijkstra relaxation helper.
func (h *IndexedHeap) PushOrDecrease(id int, priority float64) bool {
	p := h.pos[id]
	if p < 0 {
		h.Push(id, priority)
		return true
	}
	if priority < h.heap[p].key {
		h.up(p, slot{priority, id})
		return true
	}
	return false
}

// Grow extends the id space to [0, n), keeping current contents. It is a
// no-op when the heap already accepts n ids. Together with Reset this lets a
// single heap be reused across graphs of different sizes without
// re-allocating (the shortest-path workspaces rely on it).
func (h *IndexedHeap) Grow(n int) {
	for len(h.pos) < n {
		h.pos = append(h.pos, -1)
	}
}

// Reset empties the heap, keeping capacity.
func (h *IndexedHeap) Reset() {
	for _, s := range h.heap {
		h.pos[s.id] = -1
	}
	h.heap = h.heap[:0]
}

// up places x at the hole i and moves the hole rootwards past every parent
// whose key is larger than x's, then stores x there.
func (h *IndexedHeap) up(i int, x slot) {
	for i > 0 {
		parent := (i - 1) / 2
		ps := h.heap[parent]
		if !(x.key < ps.key) {
			break
		}
		h.heap[i] = ps
		h.pos[ps.id] = i
		i = parent
	}
	h.heap[i] = x
	h.pos[x.id] = i
}

// down places x at the hole i and moves the hole leafwards past the smaller
// child while that child's key is smaller than x's, then stores x there.
// With ties the left child wins, as in the swap-based sift.
func (h *IndexedHeap) down(i int, x slot) {
	n := len(h.heap)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		c, cs := i, x
		if ls := h.heap[l]; ls.key < cs.key {
			c, cs = l, ls
		}
		if r := l + 1; r < n {
			if rs := h.heap[r]; rs.key < cs.key {
				c, cs = r, rs
			}
		}
		if c == i {
			break
		}
		h.heap[i] = cs
		h.pos[cs.id] = i
		i = c
	}
	h.heap[i] = x
	h.pos[x.id] = i
}
