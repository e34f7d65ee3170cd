// Package bitset provides a compact fixed-capacity bit set used to represent
// wavelength sets Λ(e) and Λ_avail(e) on WDM links. Operations are allocation
// conscious: the common queries (membership, population count, intersection
// count) touch only the underlying uint64 words.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a bit set. The zero value is an empty set with capacity 0; use New
// to create a set that can hold indices in [0, n).
type Set struct {
	words []uint64
	n     int
}

// New returns an empty set capable of holding indices in [0, n).
func New(n int) *Set {
	if n < 0 {
		panic("bitset: negative capacity")
	}
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// Add sets bit i. It panics if i is out of range.
func (s *Set) Add(i int) {
	s.check(i)
	s.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Remove clears bit i. It panics if i is out of range.
func (s *Set) Remove(i int) {
	s.check(i)
	s.words[i/wordBits] &^= 1 << uint(i%wordBits)
}

// Contains reports whether bit i is set. It panics if i is out of range.
func (s *Set) Contains(i int) bool {
	s.check(i)
	return s.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

func (s *Set) check(i int) {
	if i < 0 || i >= s.n {
		//wdmlint:ignore hotalloc panic-path formatting; unreachable in a correct run
		panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, s.n))
	}
}

// Count returns the number of set bits.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Empty reports whether no bits are set.
func (s *Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of s.
func (s *Set) Clone() *Set {
	c := &Set{words: make([]uint64, len(s.words)), n: s.n}
	copy(c.words, s.words)
	return c
}

// CopyFrom overwrites s with the contents of o. The two sets must have the
// same capacity.
func (s *Set) CopyFrom(o *Set) {
	if s.n != o.n {
		panic("bitset: CopyFrom capacity mismatch")
	}
	copy(s.words, o.words)
}

// IntersectCount returns |s ∩ o| without allocating. Capacities must match.
func (s *Set) IntersectCount(o *Set) int {
	if s.n != o.n {
		panic("bitset: IntersectCount capacity mismatch")
	}
	c := 0
	for i, w := range s.words {
		c += bits.OnesCount64(w & o.words[i])
	}
	return c
}

// Intersects reports whether s and o share any element.
func (s *Set) Intersects(o *Set) bool {
	if s.n != o.n {
		panic("bitset: Intersects capacity mismatch")
	}
	for i, w := range s.words {
		if w&o.words[i] != 0 {
			return true
		}
	}
	return false
}

// Min returns the smallest set bit, or -1 if the set is empty.
func (s *Set) Min() int {
	for i, w := range s.words {
		if w != 0 {
			return i*wordBits + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// NextAfter returns the smallest set bit strictly greater than i, or -1 if
// none exists. Passing i = -1 yields the minimum element.
func (s *Set) NextAfter(i int) int {
	i++
	if i < 0 {
		i = 0
	}
	if i >= s.n {
		return -1
	}
	wi := i / wordBits
	w := s.words[wi] >> uint(i%wordBits)
	if w != 0 {
		return i + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(s.words); wi++ {
		if s.words[wi] != 0 {
			return wi*wordBits + bits.TrailingZeros64(s.words[wi])
		}
	}
	return -1
}

// LongestRun returns the length of the longest run of consecutive set bits,
// word-at-a-time: within each word the longest run of k consecutive ones is
// found by k-fold self-AND-shift, and runs crossing word boundaries are
// stitched via the carry of trailing ones. Returns 0 for an empty set.
func (s *Set) LongestRun() int {
	best, carry := 0, 0
	for _, w := range s.words {
		if w == ^uint64(0) {
			carry += wordBits
			if carry > best {
				best = carry
			}
			continue
		}
		// Run carried in from the previous word extends over this word's
		// trailing ones.
		if carry > 0 {
			run := carry + bits.TrailingZeros64(^w)
			if run > best {
				best = run
			}
		}
		// Longest run fully inside this word.
		run := 0
		for x := w; x != 0; x &= x << 1 {
			run++
		}
		if run > best {
			best = run
		}
		carry = bits.LeadingZeros64(^w) // trailing ones at the top of the word
	}
	return best
}

// ForEach calls fn for every set bit in ascending order. If fn returns false
// the iteration stops early.
func (s *Set) ForEach(fn func(i int) bool) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(wi*wordBits + b) {
				return
			}
			w &= w - 1
		}
	}
}

// Slice returns the set elements in ascending order.
func (s *Set) Slice() []int {
	out := make([]int, 0, s.Count())
	s.ForEach(func(i int) bool {
		out = append(out, i)
		return true
	})
	return out
}

// String renders the set as "{a, b, c}".
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) bool {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "%d", i)
		return true
	})
	b.WriteByte('}')
	return b.String()
}
