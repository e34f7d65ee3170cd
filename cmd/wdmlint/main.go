// Command wdmlint runs the repository's domain static-analysis rules (see
// DESIGN.md §10): the conventions the routing engine's correctness rests on —
// version-counter bumps on network mutation, reusable routers on hot paths,
// deterministic map iteration, and checked errors on flush/close/encode —
// enforced at CI time. Copies of the workspace types are go vet's to report
// (copylocks, through their noCopy sentinels).
//
// Usage:
//
//	wdmlint [-json] [-sarif] [-rules r1,r2] [-list] [packages...]
//
// Packages default to ./... . -sarif emits SARIF 2.1.0 for GitHub code
// scanning. Exit status is 1 when findings are reported, 2 when loading or
// typechecking fails. Findings are suppressed case by case with
// `//wdmlint:ignore <rule> <reason>` on the offending line or the line
// above. A directive of a selected rule that covers no finding is reported
// as stale.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cli"
	"repro/internal/lint"
	"repro/internal/lint/rules"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array")
	sarifOut := flag.Bool("sarif", false, "emit findings as SARIF 2.1.0 (GitHub code scanning)")
	ruleList := flag.String("rules", "", "comma-separated rules to run (default: all)")
	list := flag.Bool("list", false, "list available rules and exit")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println(cli.Version())
		return
	}
	if *list {
		for _, a := range rules.All {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	active, err := selectRules(*ruleList)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wdmlint:", err)
		os.Exit(2)
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load("", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wdmlint:", err)
		os.Exit(2)
	}
	diags := lint.Run(pkgs, active)
	switch {
	case *sarifOut:
		if err := writeSARIF(os.Stdout, active, diags); err != nil {
			fmt.Fprintln(os.Stderr, "wdmlint:", err)
			os.Exit(2)
		}
	case *jsonOut:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []lint.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(os.Stderr, "wdmlint:", err)
			os.Exit(2)
		}
	default:
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		if !*jsonOut && !*sarifOut {
			fmt.Fprintf(os.Stderr, "wdmlint: %d finding(s)\n", len(diags))
		}
		os.Exit(1)
	}
}

// selectRules resolves a comma-separated rule filter against the registry.
func selectRules(filter string) ([]*lint.Analyzer, error) {
	if filter == "" {
		return rules.All, nil
	}
	byName := map[string]*lint.Analyzer{}
	for _, a := range rules.All {
		byName[a.Name] = a
	}
	var out []*lint.Analyzer
	for _, name := range strings.Split(filter, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown rule %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}
