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
		"3456 scheduled / 0 leftover",
		"USID consistency spot-check: 0 split sites",
		"hw-vendorA-3   degradation",
		"decision: HALT roll-out",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
