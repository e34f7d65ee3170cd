// Package core is a fixture deterministic package: map iteration must feed a
// sorted slice before anything order-sensitive happens.
package core

import "sort"

// SortedKeys collects keys and sorts them after the loop: clean.
func SortedKeys(m map[int]float64) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// SumCosts folds map values in iteration order: finding.
func SumCosts(m map[int]float64) float64 {
	total := 0.0
	for _, c := range m {
		total += c
	}
	return total
}

// CountLive only counts, which is order-insensitive; the directive records it.
func CountLive(m map[int]bool) int {
	n := 0
	//wdmlint:ignore mapdet counting is commutative, order cannot leak
	for _, live := range m {
		if live {
			n++
		}
	}
	return n
}

// Len iterates no map: its mapdet directive covers nothing and is reported
// as stale, while the hotalloc one belongs to a rule that did not run.
func Len(m map[int]bool) int {
	//wdmlint:ignore mapdet left behind when the loop below was deleted
	n := len(m)
	//wdmlint:ignore hotalloc not judged by a mapdet-only run
	return n
}
