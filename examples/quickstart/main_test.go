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
		"vce-001 now runs v2 (reboots: 1)",
		"--- upgrade to a bad image (v3) ---",
		"vce-001 rolled back to v2",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
