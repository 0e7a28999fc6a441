package main

import (
	"strings"
	"testing"
)

// TestRun verifies a small RAN with an injected degradation and checks the
// stable lines of the report.
func TestRun(t *testing.T) {
	var out strings.Builder
	if err := run(&out, []string{"-nodes", "200", "-impact", "degradation"}); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	for _, want := range []string{
		`KPI catalog: 349 equations; verifying group "scorecard"`,
		"study=30 control=6 (2nd-minus-1st)",
		"injected degradation (x0.6) on scorecard-kpi-001 via counter acc.success_0",
		"go/no-go: false",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
	if err := run(&out, []string{"-nodes", "200", "-impact", "sideways"}); err == nil {
		t.Fatal("unknown -impact accepted")
	}
}
