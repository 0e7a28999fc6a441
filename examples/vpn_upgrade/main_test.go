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
		"workflow 1 (download-install): 29/29 succeeded",
		"workflow 2 (activate-verify): 29/29 succeeded",
		"pkt-discard-rate         improvement",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
