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
// Each heap slot carries its item's priority next to its id, so a
// comparison reads one slot rather than chasing the id into a priority
// array, and sifting moves a hole instead of swapping: the comparisons are
// the textbook swap-based heap's, in the same order, so the pop order, ties
// included, is the same too.
//
// The zero value is not usable; call NewIndexedHeap.
type IndexedHeap struct {
	heap []slot    // heap[i] = item at heap position i, with its priority
	pos  []int     // pos[id] = heap position of id, or -1
	prio []float64 // prio[id] = last priority given to id (read by Priority)
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

// Peek returns the minimum item without removing it.
func (h *IndexedHeap) Peek() (id int, priority float64) {
	if len(h.heap) == 0 {
		panic("pq: Peek on empty heap")
	}
	return h.heap[0].id, h.heap[0].key
}

// DecreaseKey lowers the priority of id to priority. It panics if id is not
// in the heap or the new priority is greater than the current one.
func (h *IndexedHeap) DecreaseKey(id int, priority float64) {
	p := h.pos[id]
	if p < 0 {
		panic("pq: DecreaseKey of item not in heap")
	}
	if priority > h.heap[p].key {
		panic("pq: DecreaseKey with larger priority")
	}
	h.prio[id] = priority
	h.up(p, slot{priority, id})
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
		h.prio[id] = priority
		h.up(p, slot{priority, id})
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
	x := h.heap[last]
	h.heap = h.heap[:last]
	h.pos[id] = -1
	if p < last {
		// The last item fills the hole at p and rises or sinks from there.
		h.up(p, x)
		h.down(p, h.heap[p])
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
