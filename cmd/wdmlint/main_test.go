package main

import (
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/rules"
)

// TestRepoClean is the self-gate: the repository must lint clean under every
// analyzer, so any new finding fails the build until fixed or suppressed with
// a reasoned directive.
func TestRepoClean(t *testing.T) {
	pkgs, err := lint.Load("", "repro/...")
	if err != nil {
		t.Fatalf("loading repository packages: %v", err)
	}
	diags := lint.Run(pkgs, rules.All)
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(diags) > 0 {
		t.Fatalf("wdmlint found %d finding(s) in the repository; fix them or add a //wdmlint:ignore <rule> <reason> directive", len(diags))
	}
}

// TestSelectRules exercises the -rules flag parser against the registry.
func TestSelectRules(t *testing.T) {
	all, err := selectRules("")
	if err != nil || len(all) != len(rules.All) {
		t.Fatalf("selectRules(\"\") = %d analyzers, err %v; want all %d", len(all), err, len(rules.All))
	}
	two, err := selectRules("hotalloc,snapmut")
	if err != nil || len(two) != 2 {
		t.Fatalf("selectRules(\"hotalloc,snapmut\") = %d analyzers, err %v; want 2", len(two), err)
	}
	if _, err := selectRules("nosuchrule"); err == nil {
		t.Fatal("selectRules(\"nosuchrule\") succeeded; want error")
	}
}
