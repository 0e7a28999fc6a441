package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRun plans a small RAN under every -backend value and checks the
// stable lines of the report; portfolio and an unknown backend are errors.
func TestRun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "intent.json")
	doc := `{
	  "scheduling_window": {"start": "2021-09-01 00:00:00", "end": "2021-09-11 00:00:00",
	    "granularity": {"metric": "day", "value": 1}},
	  "schedulable_attribute": "common_id",
	  "constraints": [
	    {"name": "concurrency", "base_attribute": "common_id", "default_capacity": 30},
	    {"name": "consistency", "attribute": "usid"}
	  ]
	}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		backend string
		want    []string // nil: run must fail
	}{
		{"auto", []string{"method=solver"}},
		{"solver", []string{"method=solver", "* backend=solver"}},
		{"heuristic", []string{"method=heuristic", "* backend=heuristic"}},
		{"portfolio", nil},
		{"greedy", nil},
	} {
		t.Run(tc.backend, func(t *testing.T) {
			var out strings.Builder
			err := run(&out, []string{"-intent", path, "-size", "60", "-backend", tc.backend,
				"-timeout", "30s", "-stats", "-show", "2"})
			if tc.want == nil {
				if err == nil || !strings.Contains(err.Error(), "unknown policy") {
					t.Fatalf("run: err = %v, want the unknown-policy error\n%s", err, out.String())
				}
				return
			}
			if err != nil {
				t.Fatalf("run: %v\n%s", err, out.String())
			}
			for _, want := range append([]string{
				"inventory: ran, 56 schedulable elements (of 68 total)",
				"makespan=2 conflicts=0 scheduled=56 leftovers=0",
				"window  1 2021-09-02: 26 nodes:",
			}, tc.want...) {
				if !strings.Contains(out.String(), want) {
					t.Errorf("output lacks %q:\n%s", want, out.String())
				}
			}
		})
	}
}

// TestRunRefusesWhatTheHeuristicCannotExpress checks -backend heuristic
// on an intent Algorithm 1 would partly drop (consistency on tac) is an
// error naming the constraint (main exits 1 on it).
func TestRunRefusesWhatTheHeuristicCannotExpress(t *testing.T) {
	path := filepath.Join(t.TempDir(), "intent.json")
	doc := `{
	  "scheduling_window": {"start": "2021-09-01 00:00:00", "end": "2021-09-11 00:00:00",
	    "granularity": {"metric": "day", "value": 1}},
	  "schedulable_attribute": "common_id",
	  "constraints": [
	    {"name": "concurrency", "base_attribute": "common_id", "default_capacity": 30},
	    {"name": "consistency", "attribute": "tac"}
	  ]
	}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	err := run(&out, []string{"-intent", path, "-size", "60", "-backend", "heuristic"})
	if err == nil || !strings.Contains(err.Error(), "cannot express constraint 1 (consistency on tac)") {
		t.Fatalf("run: err = %v, want the refusal naming constraint 1\n%s", err, out.String())
	}
}
