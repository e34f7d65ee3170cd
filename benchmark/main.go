// Command benchmark is the repository's benchmark: one ladder from the
// routing kernels through the router, the event-driven simulator and the
// in-process serving engine to the HTTP daemon surface. See README.md.
//
// Run one workload (the last line printed is its JSON result):
//
//	go run . -workload engine-closed -seed 1 -seconds 15 -trace 0
//
// Run every workload, each in its own process, and collect the results:
//
//	go run . -seed 1 -out DIR [-runs N] [-trace]
//
// Compare two collections by the regression and gain rules:
//
//	go run . compare PARENT CHANGE [-claim metric@workload]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	fs := flag.NewFlagSet("benchmark", flag.ExitOnError)
	name := fs.String("workload", "", "run only this workload, in this process, and print its JSON result last")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	secs := fs.Float64("seconds", defaultSeconds, "length of each workload's timed phase, in seconds")
	trace := fs.Bool("trace", false, "traced run: report the per-layer metrics instead of the end-to-end ones")
	out := fs.String("out", "", "directory for results.json, layers.json and span files")
	runs := fs.Int("runs", 1, "untraced runs per workload, with seeds seed, seed+1, ...")
	_ = fs.Parse(normalizeBoolArgs(os.Args[1:], "trace")) // ExitOnError: Parse exits on error
	if fs.NArg() > 0 {
		fatalf("unexpected arguments %v", fs.Args())
	}
	if *secs <= 0 {
		fatalf("-seconds must be positive")
	}

	if *name != "" {
		os.Exit(runOne(*name, runConfig{seed: *seed, seconds: *secs}, *trace, *out))
	}
	if *out == "" {
		fatalf("give -workload NAME to run one workload, or -out DIR to run them all")
	}
	if *runs < 1 {
		fatalf("-runs must be at least 1")
	}
	os.Exit(orchestrate(*seed, *secs, *runs, *trace, *out))
}

// defaultSeconds is the timed phase of each workload in a full run.
const defaultSeconds = 15

// runOne runs a single workload and prints its result as the last line of
// standard output. The exit code is 0 only for a correct, complete result.
func runOne(name string, c runConfig, traced bool, out string) int {
	run, ok := runners[name]
	if !ok {
		fatalf("unknown workload %q", name)
	}
	if traced {
		c.rec = newRecorder()
	}
	o, err := run(c)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		return 1
	}
	res, diag, err := buildResult(o, traced)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		return 1
	}
	for _, v := range o.violations {
		fmt.Fprintf(os.Stderr, "%s: correctness violation: %s\n", name, v)
	}
	if traced && out != "" {
		if err := writeTrace(out, name, c.rec, o); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		return 1
	}
	printLines(name, res.Metrics)
	printLines(name, diag)
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// writeTrace writes a traced run's spans, the end-to-end metrics it measured
// with tracing on, and its workload-specific ledger.
func writeTrace(dir, name string, rec *recorder, o *outcome) error {
	if err := rec.writeJSONL(filepath.Join(dir, name+".spans.jsonl")); err != nil {
		return err
	}
	e2e, err := o.endToEndMetrics()
	if err != nil {
		return err
	}
	return writeJSON(filepath.Join(dir, name+".detail.json"), traceDetail{EndToEnd: e2e, Ledger: o.ledger})
}

// normalizeBoolArgs lets a boolean flag also take its value as the next
// argument ("-trace 1"), as well as the flag package's "-trace" and
// "-trace=1" forms.
func normalizeBoolArgs(args []string, name string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-"+name || a == "--"+name) && i+1 < len(args) {
			switch v := args[i+1]; v {
			case "0", "1", "true", "false":
				out = append(out, a+"="+v)
				i++
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}
