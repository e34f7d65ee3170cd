package timeseries

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// FileSink is a Sink over a file: Close flushes the buffered windows and
// closes the file, reporting the first error.
type FileSink interface {
	Sink
	Close() error
}

// CreateFile creates path and returns a sink streaming sealed windows to it:
// CSV when the path ends in .csv, JSONL otherwise.
func CreateFile(path string) (FileSink, error) {
	fh, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if strings.HasSuffix(path, ".csv") {
		return NewCSV(fh), nil
	}
	return NewJSONL(fh), nil
}

// JSONL streams sealed windows as one JSON object per line through an
// internal buffer. Call Flush (or Close) when done, or trailing windows
// stay in the buffer — the wdmlint errcheck-lite rule enforces that the
// error is checked. After the first failure every subsequent write returns
// the same error without touching the sink, so a dead sink costs one
// failed write, not one per window.
type JSONL struct {
	w   io.Writer
	bw  *bufio.Writer
	enc *json.Encoder
	err error
}

// NewJSONL returns a sink writing to w.
func NewJSONL(w io.Writer) *JSONL {
	bw := bufio.NewWriter(w)
	return &JSONL{w: w, bw: bw, enc: json.NewEncoder(bw)}
}

// WriteSnapshot implements Sink.
func (j *JSONL) WriteSnapshot(s *Snapshot) error {
	if j.err != nil {
		return j.err
	}
	if err := j.enc.Encode(s); err != nil {
		j.err = fmt.Errorf("timeseries: %w", err)
	}
	return j.err
}

// Flush drains the internal buffer to the underlying writer.
func (j *JSONL) Flush() error {
	if err := j.bw.Flush(); err != nil && j.err == nil {
		j.err = fmt.Errorf("timeseries: %w", err)
	}
	return j.err
}

// Close flushes and, when the underlying writer is an io.Closer (e.g. an
// *os.File), closes it. The first error wins.
func (j *JSONL) Close() error {
	err := j.Flush()
	if c, ok := j.w.(io.Closer); ok {
		if cerr := c.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("timeseries: %w", cerr)
			j.err = err
		}
	}
	return err
}

// CSV streams sealed windows as comma-separated rows. The header is derived
// from the first window's series (sorted by name, one column group per
// series) and written lazily before the first row; later windows must carry
// the same series in the same order or WriteSnapshot fails, so a CSV file
// is always rectangular. Call Flush or Close when done.
type CSV struct {
	w      io.Writer
	bw     *bufio.Writer
	header []string // series-derived column names after the fixed prefix
	err    error
}

// NewCSV returns a sink writing to w.
func NewCSV(w io.Writer) *CSV {
	return &CSV{w: w, bw: bufio.NewWriter(w)}
}

func csvFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// columns lists the per-series column names of a snapshot, in the
// snapshot's (name-sorted) series order.
func columns(s *Snapshot) []string {
	var cols []string
	for _, h := range s.Hists {
		for _, f := range []string{"count", "sum", "mean", "min", "max", "p50", "p95", "p99"} {
			cols = append(cols, h.Name+"."+f)
		}
	}
	for _, r := range s.Rates {
		cols = append(cols, r.Name+".count", r.Name+".rate")
	}
	for _, r := range s.Ratios {
		cols = append(cols, r.Name+".num", r.Name+".den", r.Name+".value")
	}
	for _, g := range s.Gauges {
		cols = append(cols, g.Name+".last", g.Name+".min", g.Name+".max", g.Name+".mean", g.Name+".samples")
	}
	return cols
}

// WriteSnapshot implements Sink.
func (c *CSV) WriteSnapshot(s *Snapshot) error {
	if c.err != nil {
		return c.err
	}
	cols := columns(s)
	if c.header == nil {
		c.header = cols
		row := append([]string{"window", "start", "end"}, cols...)
		if _, err := c.bw.WriteString(strings.Join(row, ",") + "\n"); err != nil {
			c.err = fmt.Errorf("timeseries: %w", err)
			return c.err
		}
	} else if len(cols) != len(c.header) {
		c.err = fmt.Errorf("timeseries: csv window %d has %d columns, header has %d (series registered mid-run?)",
			s.Window, len(cols), len(c.header))
		return c.err
	}
	row := make([]string, 0, 3+len(cols))
	row = append(row, strconv.FormatUint(s.Window, 10), csvFloat(s.Start), csvFloat(s.End))
	for _, h := range s.Hists {
		row = append(row, strconv.FormatInt(h.Count, 10), csvFloat(h.Sum), csvFloat(h.Mean),
			csvFloat(h.Min), csvFloat(h.Max), csvFloat(h.P50), csvFloat(h.P95), csvFloat(h.P99))
	}
	for _, r := range s.Rates {
		row = append(row, strconv.FormatInt(r.Count, 10), csvFloat(r.Rate))
	}
	for _, r := range s.Ratios {
		row = append(row, strconv.FormatInt(r.Num, 10), strconv.FormatInt(r.Den, 10), csvFloat(r.Value))
	}
	for _, g := range s.Gauges {
		row = append(row, csvFloat(g.Last), csvFloat(g.Min), csvFloat(g.Max),
			csvFloat(g.Mean), strconv.FormatInt(g.Samples, 10))
	}
	if _, err := c.bw.WriteString(strings.Join(row, ",") + "\n"); err != nil {
		c.err = fmt.Errorf("timeseries: %w", err)
	}
	return c.err
}

// Flush drains the internal buffer to the underlying writer.
func (c *CSV) Flush() error {
	if err := c.bw.Flush(); err != nil && c.err == nil {
		c.err = fmt.Errorf("timeseries: %w", err)
	}
	return c.err
}

// Close flushes and, when the underlying writer is an io.Closer, closes it.
func (c *CSV) Close() error {
	err := c.Flush()
	if cl, ok := c.w.(io.Closer); ok {
		if cerr := cl.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("timeseries: %w", cerr)
			c.err = err
		}
	}
	return err
}
