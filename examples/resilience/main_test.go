package main

import (
	"strings"
	"testing"
)

// TestRun runs the example end to end and checks its stable output lines.
func TestRun(t *testing.T) {
	var out strings.Builder
	if err := run(&out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	for _, want := range []string{
		"last failure action: rollback",
		"workflow paused; operator repairs the NF and resumes",
		"status after resume: success",
		"vce-001 now runs v3",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
