// wdmbench regenerates the paper-reproduction experiment tables (F1, E1–E14,
// E18 and E19 of DESIGN.md; E15–E17 are retired). Run without flags for the
// full suite at full scale, or select one experiment:
//
//	wdmbench -exp E4            # one experiment
//	wdmbench -quick             # reduced scale (seconds instead of minutes)
//	wdmbench -seeds 50          # override repetition count
//	wdmbench -list              # list experiment IDs
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/cli"
	"repro/internal/metrics"
)

func main() {
	exp := flag.String("exp", "", "experiment ID to run (default: all)")
	quick := flag.Bool("quick", false, "reduced instance sizes and seed counts")
	seeds := flag.Int("seeds", 0, "override the number of random repetitions")
	list := flag.Bool("list", false, "list experiments and exit")
	format := flag.String("format", "text", "output format: text, markdown, csv")
	metricsOut := flag.String("metrics-out", "", "write a metrics snapshot to this file (.json → JSON, else Prometheus text)")
	pprofAddr := flag.String("pprof", "", "serve the debug endpoints (/metrics, /debug/pprof) on this address, e.g. localhost:6060")
	version := cli.VersionFlag()
	flag.Parse()
	cli.HandleVersion(*version)

	var reg *metrics.Registry
	if *metricsOut != "" || *pprofAddr != "" {
		reg = cli.EnableAllMetrics()
	}
	if *pprofAddr != "" {
		addr, err := cli.StartDebugServer(*pprofAddr, cli.DebugOpts{Metrics: reg})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "debug endpoints listening on http://%s\n", addr)
	}
	writeMetrics := func() {
		if *metricsOut == "" {
			return
		}
		if err := reg.WriteFile(*metricsOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	render := func(tb *bench.Table) string {
		switch *format {
		case "markdown":
			return tb.Markdown()
		case "csv":
			return tb.CSV()
		default:
			return tb.String()
		}
	}

	if *list {
		for _, e := range bench.Registry() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}

	opts := bench.Options{Quick: *quick, Seeds: *seeds}
	if *exp != "" {
		tb, err := bench.Run(*exp, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println(render(tb))
		writeMetrics()
		return
	}
	for _, tb := range bench.All(opts) {
		fmt.Println(render(tb))
	}
	writeMetrics()
}
