package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// maxKeptSpans bounds the spans a traced run keeps for its JSONL file; later
// spans still count in the per-name totals that the per-layer metrics use.
const maxKeptSpans = 1 << 17

// span is one benchmark-side span. Attrs is shared and never mutated.
type span struct {
	ID     int64             `json:"id"`
	Parent int64             `json:"parent"`
	Name   string            `json:"name"`
	Start  int64             `json:"start_ns"`
	End    int64             `json:"end_ns"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

// spanTotals aggregates every finished span of one name.
type spanTotals struct {
	count int64
	total time.Duration // summed span durations
	child time.Duration // summed durations of their direct children
}

// selfTime is the part of the spans' durations no child span covers.
func (t spanTotals) selfTime() time.Duration { return t.total - t.child }

// recorder keeps spans in memory for a traced run. A nil *recorder records
// nothing, so untraced runs pay one nil check per call site.
type recorder struct {
	epoch time.Time

	mu     sync.Mutex
	nextID int64
	open   map[int64]string // id → name of spans begun but not ended
	kept   []span
	totals map[string]*spanTotals
}

func newRecorder() *recorder {
	return &recorder{
		epoch:  time.Now(),
		open:   make(map[int64]string),
		totals: make(map[string]*spanTotals),
	}
}

// spanRef is a begun span.
type spanRef struct {
	id     int64
	parent int64
	name   string
	start  time.Time
}

// begin opens a span under parent (0 for a root).
func (r *recorder) begin(name string, parent int64) spanRef {
	if r == nil {
		return spanRef{}
	}
	now := time.Now()
	r.mu.Lock()
	r.nextID++
	id := r.nextID
	r.open[id] = name
	r.mu.Unlock()
	return spanRef{id: id, parent: parent, name: name, start: now}
}

// end closes a begun span.
func (r *recorder) end(s spanRef) {
	if r == nil {
		return
	}
	now := time.Now()
	r.mu.Lock()
	delete(r.open, s.id)
	r.mu.Unlock()
	r.add(s.id, s.parent, s.name, s.start, now, nil)
}

// record adds a span that was timed by the caller.
func (r *recorder) record(name string, parent int64, start, end time.Time, attrs map[string]string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.nextID++
	id := r.nextID
	r.mu.Unlock()
	r.add(id, parent, name, start, end, attrs)
}

func (r *recorder) add(id, parent int64, name string, start, end time.Time, attrs map[string]string) {
	d := end.Sub(start)
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.totals[name]
	if t == nil {
		t = &spanTotals{}
		r.totals[name] = t
	}
	t.count++
	t.total += d
	// Children end before their parent, so the parent is still open.
	if pname, ok := r.open[parent]; ok {
		pt := r.totals[pname]
		if pt == nil {
			pt = &spanTotals{}
			r.totals[pname] = pt
		}
		pt.child += d
	}
	if len(r.kept) < maxKeptSpans {
		r.kept = append(r.kept, span{ID: id, Parent: parent, Name: name,
			Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds(), Attrs: attrs})
	}
}

// totalsOf returns the aggregate of every finished span called name.
func (r *recorder) totalsOf(name string) spanTotals {
	r.mu.Lock()
	defer r.mu.Unlock()
	if t := r.totals[name]; t != nil {
		return *t
	}
	return spanTotals{}
}

// writeJSONL writes the kept spans, one JSON object per line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for i := range r.kept {
		if err := enc.Encode(&r.kept[i]); err != nil {
			r.mu.Unlock()
			_ = f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
