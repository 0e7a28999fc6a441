package intent

import (
	"strings"
	"testing"
)

// FuzzParse feeds arbitrary documents to the intent parser: it must never
// panic, and for every document it accepts the window step must be
// positive and Timeslots must return. The corpus under
// testdata/fuzz/FuzzParse holds documents that once hung the planner.
// Run with:
//
//	go test -fuzz FuzzParse ./internal/plan/intent
func FuzzParse(f *testing.F) {
	minimal := `{"scheduling_window": {"start": "2020-07-01 00:00:00", "end": "2020-07-08 00:00:00",
	  "granularity": {"metric": "day", "value": 1}},
	  "schedulable_attribute": "common_id",
	  "constraints": [{"name": "concurrency", "base_attribute": "common_id", "default_capacity": 10}]}`
	for _, seed := range []string{
		listing1,
		minimal,
		strings.Replace(minimal, `"metric": "day", "value": 1`, `"metric": "hour", "value": 6`, 1),
		strings.Replace(minimal, `"metric": "day", "value": 1`, `"metric": "week", "value": -3`, 1),
		"{}", "[]", "", `{"scheduling_window": null}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := Parse(data)
		if err != nil {
			return
		}
		step, err := r.SchedulingWindow.Granularity.Duration()
		if err != nil || step <= 0 {
			t.Fatalf("accepted a window step of %v (err %v): %+v", step, err, r.SchedulingWindow)
		}
		if _, _, err := r.windowTimes(); err != nil {
			t.Fatalf("accepted a window Timeslots rejects: %v", err)
		}
		r.Timeslots() // must return; an error is a fine answer
	})
}
