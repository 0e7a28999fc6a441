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
		"(members [chg-east chg-west], strategy subtree, parallelism full)",
		"diagnosis: {",
		"queued change completed as",
		"(members [chg-late])",
		"(members [chg-dns chg-mtu], parallelism none:",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
