package main

import (
	"strings"
	"testing"
)

// TestRun drives the example's three phases end to end: the fleet
// converges, survives a total fault through backoff, and its journal
// shows both the failed and the applied bump.
func TestRun(t *testing.T) {
	var out strings.Builder
	if err := run(&out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	for _, want := range []string{
		"vgw-001 runs v3 (mtu=9000)",
		"vgw-000 runs v1 (mtu=)",
		`failed   software-upgrade       vgw-001: "v2" -> "v3"`,
		`applied  software-upgrade       vgw-001: "v2" -> "v3"`,
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
