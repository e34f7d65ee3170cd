// Package parallel runs experiment sweeps across goroutines with
// deterministic results: each task owns its index (and derives its own seed
// from it), so the output is independent of scheduling. This is the fan-out
// layer the benchmark harness uses to fill all cores.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Map evaluates fn(i) for i in [0, n) using up to workers goroutines
// (workers ≤ 0 selects GOMAXPROCS) and returns the results in index order.
func Map[T any](n, workers int, fn func(i int) T) []T {
	return MapWithState(n, workers,
		func() struct{} { return struct{}{} },
		func(_ struct{}, i int) T { return fn(i) })
}

// MapWithState is Map with per-worker state: mk is called once per worker
// goroutine and its value is passed to every fn call that worker executes.
// This is how sweeps give each worker its own reusable scratch (a
// core.Router, an RNG, a decoder buffer) without sharing it across
// goroutines or recreating it per task. Determinism is unchanged — results
// depend only on the task index, and state must not leak information between
// tasks that would make fn(i) depend on scheduling.
func MapWithState[S, T any](n, workers int, mk func() S, fn func(state S, i int) T) []T {
	if n < 0 {
		panic("parallel: negative task count")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	out := make([]T, n)
	if n == 0 {
		return out
	}
	if workers <= 1 {
		state := mk()
		for i := 0; i < n; i++ {
			out[i] = fn(state, i)
		}
		return out
	}
	// Lock-free work claiming: each worker atomically takes the next index.
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			state := mk()
			for {
				i := next.Add(1) - 1
				if i >= int64(n) {
					return
				}
				out[i] = fn(state, int(i))
			}
		}()
	}
	wg.Wait()
	return out
}
