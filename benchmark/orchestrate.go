package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// runRecord is one workload run in results.json.
type runRecord struct {
	Workload string    `json:"workload"`
	Seed     int64     `json:"seed"`
	Started  time.Time `json:"started"` // compare pairs runs in the order they ran
	Result   Result    `json:"result"`
	// Diagnostics are the ungated metrics the run printed.
	Diagnostics map[string]Value `json:"diagnostics,omitempty"`
}

// resultsFile is DIR/results.json: every untraced run of one invocation.
type resultsFile struct {
	GoVersion  string      `json:"go_version"`
	NumCPU     int         `json:"nproc"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	Seconds    float64     `json:"seconds"`
	Runs       []runRecord `json:"runs"`
}

// traceDetail is what a traced run writes beside its spans: the end-to-end
// metrics it measured with tracing on, and the workload-specific ledger.
type traceDetail struct {
	EndToEnd map[string]float64 `json:"end_to_end"`
	Ledger   map[string]float64 `json:"ledger"`
}

// layersEntry is one workload in DIR/layers.json.
type layersEntry struct {
	PerLayer map[string]Value   `json:"per_layer"`
	Ledger   map[string]float64 `json:"ledger"`
	// TracingOverhead is, per end-to-end metric, the traced run's value over
	// the untraced run's with the same seed, minus one.
	TracingOverhead map[string]float64 `json:"tracing_overhead"`
}

// workloadGOMAXPROCS is the parallelism of every workload process.
const workloadGOMAXPROCS = 2

// orchestrate runs every workload, diagnostic ones included, in its own
// process, runs times untraced (and once traced with -trace), prints each
// end-to-end metric's median over the runs, and writes results.json (and
// layers.json). Any failed correctness check stops it before anything is
// written.
func orchestrate(seed int64, secs float64, runs int, trace bool, dir string) int {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	rf := resultsFile{GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: workloadGOMAXPROCS, Seconds: secs}
	layers := map[string]layersEntry{}
	for _, w := range allWorkloads() {
		values := map[string][]float64{}
		for r := 0; r < runs; r++ {
			started := time.Now()
			res, diag, err := runChild(exe, w.Name, seed+int64(r), secs, false, "")
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s run %d: %v\n", w.Name, r, err)
				return 1
			}
			rf.Runs = append(rf.Runs, runRecord{Workload: w.Name, Seed: seed + int64(r), Started: started, Result: res, Diagnostics: diag})
			for _, set := range []map[string]Value{res.Metrics, diag} {
				for name, v := range set {
					values[name] = append(values[name], v.Value)
				}
			}
		}
		medians := map[string]Value{}
		for name, vs := range values {
			medians[name] = Value{Value: median(vs), Unit: unitOf(name)}
		}
		printLines(w.Name, medians)
		if !trace {
			continue
		}
		res, _, err := runChild(exe, w.Name, seed, secs, true, dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s traced: %v\n", w.Name, err)
			return 1
		}
		entry, err := layersOf(dir, w.Name, res, rf.Runs[len(rf.Runs)-runs].Result)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s traced: %v\n", w.Name, err)
			return 1
		}
		layers[w.Name] = entry
	}
	if err := writeJSON(filepath.Join(dir, "results.json"), rf); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if trace {
		if err := writeJSON(filepath.Join(dir, "layers.json"), layers); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	return 0
}

// layersOf joins a traced run's result and detail file with the untraced
// run of the same seed. The simulator is deterministic, so tracing it must
// not change what it computes.
func layersOf(dir, name string, traced, untraced Result) (layersEntry, error) {
	b, err := os.ReadFile(filepath.Join(dir, name+".detail.json"))
	if err != nil {
		return layersEntry{}, err
	}
	var d traceDetail
	if err := json.Unmarshal(b, &d); err != nil {
		return layersEntry{}, fmt.Errorf("%s.detail.json: %w", name, err)
	}
	entry := layersEntry{PerLayer: traced.Metrics, Ledger: d.Ledger, TracingOverhead: map[string]float64{}}
	for metric, v := range untraced.Metrics {
		entry.TracingOverhead[metric] = d.EndToEnd[metric]/v.Value - 1
	}
	if name == "sim-mincost" {
		for _, metric := range []string{"acceptance", "cost_mean"} {
			if got, want := d.EndToEnd[metric], untraced.Metrics[metric].Value; got != want {
				return entry, fmt.Errorf("traced run's %s is %v, untraced run's %v: tracing changed the simulation", metric, got, want)
			}
		}
	}
	return entry, nil
}

// runChild runs one workload in a child process of this binary and returns
// the result it printed last, with the diagnostics it printed before it. A
// non-zero exit is an error.
func runChild(exe, name string, seed int64, secs float64, traced bool, dir string) (Result, map[string]Value, error) {
	args := []string{"-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(secs, 'g', -1, 64), "-trace=" + strconv.FormatBool(traced)}
	if dir != "" {
		args = append(args, "-out", dir)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(workloadGOMAXPROCS))
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	runErr := cmd.Run()
	var last string
	diag := map[string]Value{}
	sc := bufio.NewScanner(&stdout)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		last = line
		// "workload metric value unit" lines; keep the diagnostics.
		if f := strings.Fields(line); len(f) == 4 && f[0] == name &&
			slices.ContainsFunc(diagnostics, func(d EndToEnd) bool { return d.Name == f[1] }) {
			if v, err := strconv.ParseFloat(f[2], 64); err == nil {
				diag[f[1]] = Value{Value: v, Unit: f[3]}
			}
		}
	}
	if runErr != nil {
		return Result{}, nil, fmt.Errorf("%w (last output: %s)", runErr, last)
	}
	var res Result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return Result{}, nil, fmt.Errorf("result line %q: %w", last, err)
	}
	return res, diag, nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
