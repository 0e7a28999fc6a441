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
		"zone-02: 7 functions on window 2 (consistent=true)",
		"upgrades: 20 clean, 1 with fall-outs [vgw-00-02]",
		"retry status: success, vgw-00-02 now runs sdwan-2.5",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
