package timeseries

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/metrics"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fillDeterministic drives a seeded synthetic stream through the collector:
// five windows of latency samples, counters, a blocking ratio and a load
// gauge. Purely arithmetic, so the exported bytes are stable across runs and
// platforms — the simulator's own latencies are wall-clock and would not be.
func fillDeterministic(c *Collector) {
	rng := rand.New(rand.NewSource(7))
	h := metrics.NewHistogram(nil)
	acc, blk := &metrics.Counter{}, &metrics.Counter{}
	c.Histogram("route_latency_seconds", h)
	c.Rate("accepted", acc)
	c.Ratio("blocking", blk, acc)
	load := c.Gauge("link_load_mean")
	c.OnSeal(func(end float64) { load.Set(0.1 * end) })
	for w := 0; w < 5; w++ {
		for i := 0; i < 40; i++ {
			h.Observe(1e-5 * math.Pow(100, rng.Float64()))
			if rng.Float64() < 0.2 {
				blk.Inc()
			} else {
				acc.Inc()
			}
		}
		c.Advance(float64(w+1) * 2)
	}
}

func checkGolden(t *testing.T, got []byte, name string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/timeseries -run Golden -update` to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from golden (re-run with -update if intended)\ngot:\n%s", name, got)
	}
}

func TestGoldenJSONL(t *testing.T) {
	c := New(2)
	var buf bytes.Buffer
	sink := NewJSONL(&buf)
	c.SetSink(sink)
	fillDeterministic(c)
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := c.SinkErr(); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, buf.Bytes(), "soak.jsonl")

	// The stream parses back into exactly the snapshots the ring retained.
	parsed, err := readJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(parsed, c.Snapshots(0)) {
		t.Fatal("JSONL roundtrip diverged from retained snapshots")
	}
}

func TestGoldenCSV(t *testing.T) {
	c := New(2)
	var buf bytes.Buffer
	sink := NewCSV(&buf)
	c.SetSink(sink)
	fillDeterministic(c)
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := c.SinkErr(); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, buf.Bytes(), "soak.csv")
}

// TestCreateFileFormatBySuffix pins the one file-sink opener: a .csv path
// gets the CSV encoding and any other path JSONL, byte-identical to the
// in-memory sinks' goldens once Close has flushed the file.
func TestCreateFileFormatBySuffix(t *testing.T) {
	dir := t.TempDir()
	for file, golden := range map[string]string{
		"soak.csv":   "soak.csv",
		"soak.jsonl": "soak.jsonl",
		"soak":       "soak.jsonl",
	} {
		path := filepath.Join(dir, file)
		sink, err := CreateFile(path)
		if err != nil {
			t.Fatal(err)
		}
		c := New(2)
		c.SetSink(sink)
		fillDeterministic(c)
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, got, golden)
	}
	if _, err := CreateFile(filepath.Join(dir, "missing", "w.csv")); err == nil {
		t.Fatal("CreateFile into a missing directory succeeded")
	}
}

func TestCSVRejectsRaggedWindows(t *testing.T) {
	c := New(1)
	var buf bytes.Buffer
	c.SetSink(NewCSV(&buf))
	c.Rate("a", &metrics.Counter{})
	c.Advance(1)
	// Registering a series mid-run would change the column set; the CSV sink
	// must fail loudly rather than silently write a ragged file.
	c.Rate("b", &metrics.Counter{})
	c.Advance(2)
	if c.SinkErr() == nil {
		t.Fatal("ragged CSV accepted")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("enospc") }

func TestJSONLFlushErrorLatches(t *testing.T) {
	j := NewJSONL(failWriter{})
	s := &Snapshot{Window: 1}
	// The bufio buffer absorbs the first write; the failure surfaces at
	// Flush and latches.
	_ = j.WriteSnapshot(s)
	if err := j.Flush(); err == nil {
		t.Fatal("flush error lost")
	}
	if err := j.WriteSnapshot(s); err == nil {
		t.Fatal("write after failure did not return the latched error")
	}
	if err := j.Close(); err == nil {
		t.Fatal("close lost the latched error")
	}
}

// readJSONL parses a JSONL stream back into snapshots.
func readJSONL(r io.Reader) ([]Snapshot, error) {
	dec := json.NewDecoder(r)
	var out []Snapshot
	for {
		var s Snapshot
		if err := dec.Decode(&s); err == io.EOF {
			return out, nil
		} else if err != nil {
			return out, err
		}
		out = append(out, s)
	}
}
