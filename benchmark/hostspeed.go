package main

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"time"
)

// The host's speed drifts: on the shared two-vCPU host the baseline was
// measured on, the same binary's throughput rose by 1.8x within fifteen
// minutes as other tenants' load fell, and no run length or median over
// windows hides that. Each run therefore also times a reference kernel
// around its set-up and between the windows of its timed phase (the
// workload idle), and states each window's times at the reference speed:
// scaled by hostSpeed = refNominal ÷ the kernel's median round time in the
// probes on either side, run on as many cores as the workload keeps busy.
// The kernel is shortest paths with a binary heap over a fixed random
// graph, the same kind of work as the router, in the benchmark's own code,
// so no change to the repository can move it.
//
// On that host, over twelve minutes, the sim's time per repetition varied
// by 42% (range over median) and its ratio to the kernel's by 7%; over
// fourteen minutes of 25 s runs of the closed serving loops, scaling each
// window cut the quartile spread of throughput across runs from 0.16-0.18
// of the median to 0.10. Probing only before and after a run did not help.
const (
	refNodes  = 3000
	refDegree = 6
	refSeed   = 1
	// refSources shortest-path trees make one round.
	refSources = 8
	// refNominal is one round's time on the baseline host at its usual
	// speed; it only sets the scale of the reported times.
	refNominal = 6 * time.Millisecond
	// probeRounds rounds per worker make one probe: about 50 ms. With half
	// as many, the probes on either side of one set of set-ups read speeds
	// up to a quarter apart.
	probeRounds = 8
)

// refGraph is the reference kernel's graph in compressed adjacency form.
type refGraph struct {
	first []int32 // edges of node v are first[v]:first[v+1]
	to    []int32
	w     []float64
}

var refGraphOnce = sync.OnceValue(func() *refGraph {
	rng := rand.New(rand.NewSource(refSeed))
	g := &refGraph{first: make([]int32, refNodes+1)}
	for v := 0; v < refNodes; v++ {
		g.first[v] = int32(len(g.to))
		for k := 0; k < refDegree; k++ {
			g.to = append(g.to, int32(rng.Intn(refNodes)))
			g.w = append(g.w, rng.Float64())
		}
	}
	g.first[refNodes] = int32(len(g.to))
	return g
})

type refItem struct {
	d float64
	v int32
}

// refWorker holds one worker's buffers, so rounds do not allocate.
type refWorker struct {
	dist []float64
	heap []refItem
}

// paths computes shortest-path distances from src, with lazy deletion.
func (w *refWorker) paths(g *refGraph, src int) {
	for i := range w.dist {
		w.dist[i] = 1e300
	}
	w.dist[src] = 0
	w.heap = append(w.heap[:0], refItem{0, int32(src)})
	for len(w.heap) > 0 {
		it := w.heap[0]
		last := len(w.heap) - 1
		w.heap[0] = w.heap[last]
		w.heap = w.heap[:last]
		for i := 0; ; { // sift down
			c := 2*i + 1
			if c >= last {
				break
			}
			if c+1 < last && w.heap[c+1].d < w.heap[c].d {
				c++
			}
			if w.heap[i].d <= w.heap[c].d {
				break
			}
			w.heap[i], w.heap[c] = w.heap[c], w.heap[i]
			i = c
		}
		if it.d > w.dist[it.v] {
			continue
		}
		for e := g.first[it.v]; e < g.first[it.v+1]; e++ {
			nd := it.d + g.w[e]
			if nd >= w.dist[g.to[e]] {
				continue
			}
			w.dist[g.to[e]] = nd
			w.heap = append(w.heap, refItem{nd, g.to[e]})
			for i := len(w.heap) - 1; i > 0; { // sift up
				p := (i - 1) / 2
				if w.heap[p].d <= w.heap[i].d {
					break
				}
				w.heap[i], w.heap[p] = w.heap[p], w.heap[i]
				i = p
			}
		}
	}
}

// refWorkers are allocated once; probes never overlap, and reusing them
// keeps the probes from adding garbage to the workload's heap.
var refWorkers = sync.OnceValue(func() []*refWorker {
	ws := make([]*refWorker, workloadGOMAXPROCS)
	for i := range ws {
		ws[i] = &refWorker{dist: make([]float64, refNodes), heap: make([]refItem, 0, refNodes*refDegree+1)}
	}
	return ws
})

// probeHost times probeRounds rounds of the reference kernel on each of
// workers goroutines at once and returns each round's time. A probe runs as
// many at once as the workload keeps busy: on a host whose two vCPUs share
// a physical core, a round takes up to twice as long beside another. It
// first finishes a garbage collection and then allocates nothing, so no
// collection of the workload's garbage runs beside it: one would slow the
// probe most when the workload allocates most, and hide that cost.
func probeHost(workers int) []time.Duration {
	g := refGraphOnce()
	runtime.GC()
	times := make([][]time.Duration, workers)
	var wg sync.WaitGroup
	for i, w := range refWorkers()[:workers] {
		times[i] = make([]time.Duration, 0, probeRounds)
		wg.Add(1)
		go func(w *refWorker, out *[]time.Duration) {
			defer wg.Done()
			for r := 0; r < probeRounds; r++ {
				t0 := time.Now()
				for s := 0; s < refSources; s++ {
					w.paths(g, (r*refSources+s)%refNodes)
				}
				*out = append(*out, time.Since(t0))
			}
		}(w, &times[i])
	}
	wg.Wait()
	return slices.Concat(times...)
}

// hostSpeed is refNominal over the median round time of the given probes.
func hostSpeed(rounds []time.Duration) float64 {
	s := make([]float64, len(rounds))
	for i, d := range rounds {
		s[i] = float64(d)
	}
	return float64(refNominal) / median(s)
}
