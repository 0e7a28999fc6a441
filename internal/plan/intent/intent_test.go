package intent

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
)

// listing1 is a trimmed version of the Appendix B example.
const listing1 = `{
  "scheduling_window": {
    "start": "2020-07-01 00:00:00",
    "end": "2020-07-07 23:59:00",
    "granularity": {"metric": "day", "value": 1}
  },
  "maintenance_window": {
    "start": "0:00", "end": "6:00", "granularity": "hour", "timezone": "local"
  },
  "excluded_periods": [
    {"start": "2020-07-01 00:00:00", "end": "2020-07-01 23:59:00"},
    {"start": "2020-07-04 00:00:00", "end": "2020-07-05 23:59:00"}
  ],
  "schedulable_attribute": "common_id",
  "conflict_attribute": "common_id",
  "inventory": "ran-inventory",
  "frozen_elements": [
    {"common_id": "id00041"},
    {"common_id": "id00283", "start": "2020-07-03 00:00:00", "end": "2020-07-03 00:00:00"},
    {"market": "NYC", "start": "2020-07-03 00:00:00", "end": "2020-07-06 00:00:00"}
  ],
  "conflict_table": {
    "id000001": [
      {"start": "2020-07-01 00:00:00", "end": "2020-07-04 00:00:00", "tickets": ["CHG000005482383"]},
      {"start": "2019-07-07 00:00:00", "end": "2019-07-15 00:00:00", "tickets": ["CHG000005485234"]}
    ],
    "id000002": [
      {"start": "2020-07-03 00:00:00", "end": "2020-07-05 00:00:00", "tickets": ["CHG000005485234", "CHG000005485999"]}
    ]
  },
  "constraints": [
    {"name": "conflict_handling", "value": "minimize-conflicts"},
    {"name": "concurrency", "base_attribute": "common_id", "operator": "<=",
     "granularity": {"metric": "day", "value": 1}, "default_capacity": 300},
    {"name": "concurrency", "base_attribute": "market", "operator": "<=",
     "granularity": {"metric": "day", "value": 1}, "default_capacity": 5},
    {"name": "concurrency", "base_attribute": "common_id", "aggregate_attribute": "pool_id",
     "operator": "<=", "granularity": {"metric": "day", "value": 1}, "default_capacity": 10},
    {"name": "uniformity", "attribute": "timezone", "value": 1},
    {"name": "localize", "attribute": "market"}
  ]
}`

func TestParseListing1(t *testing.T) {
	r, err := Parse([]byte(listing1))
	if err != nil {
		t.Fatal(err)
	}
	if r.SchedulableAttribute != "common_id" || r.ConflictAttribute != "common_id" {
		t.Fatalf("ESA/CA = %q/%q", r.SchedulableAttribute, r.ConflictAttribute)
	}
	if len(r.Constraints) != 6 {
		t.Fatalf("constraints = %d", len(r.Constraints))
	}
	if !r.MinimizeConflicts() {
		t.Fatal("MinimizeConflicts should be true")
	}
	if got := r.ByName(Concurrency); len(got) != 3 {
		t.Fatalf("concurrency constraints = %d", len(got))
	}
	u := r.ByName(Uniformity)[0]
	if u.UniformityMaxDistance() != 1 {
		t.Fatalf("uniformity distance = %v", u.UniformityMaxDistance())
	}
}

func TestTimeslotsExcludePeriods(t *testing.T) {
	r, err := Parse([]byte(listing1))
	if err != nil {
		t.Fatal(err)
	}
	slots, err := r.Timeslots()
	if err != nil {
		t.Fatal(err)
	}
	// July 1-7 daily minus July 1 and July 4-5 = 4 slots (2,3,6,7).
	if len(slots) != 4 {
		t.Fatalf("slots = %d: %+v", len(slots), slots)
	}
	for i, s := range slots {
		if s.Index != i {
			t.Fatalf("slot %d has index %d", i, s.Index)
		}
	}
	if got := slots[0].Start.Day(); got != 2 {
		t.Fatalf("first slot day = %d", got)
	}
	if got := slots[2].Start.Day(); got != 6 {
		t.Fatalf("third slot day = %d", got)
	}
}

func TestSlotConflicts(t *testing.T) {
	r, _ := Parse([]byte(listing1))
	slots, _ := r.Timeslots()
	confl, err := r.SlotConflicts(slots)
	if err != nil {
		t.Fatal(err)
	}
	// id000001 conflicts July 1-4; usable slots are Jul 2,3,6,7 -> indexes 0,1.
	if got := confl["id000001"]; len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("id000001 conflicts = %v", got)
	}
	// id000002 conflicts July 3-5 -> slot for Jul 3 = index 1 only (4,5 excluded).
	if got := confl["id000002"]; len(got) != 1 || got[0] != 1 {
		t.Fatalf("id000002 conflicts = %v", got)
	}
}

func TestResolveFrozen(t *testing.T) {
	r, _ := Parse([]byte(listing1))
	slots, _ := r.Timeslots()
	frozen, err := r.ResolveFrozen(slots)
	if err != nil {
		t.Fatal(err)
	}
	if len(frozen) != 3 {
		t.Fatalf("frozen = %+v", frozen)
	}
	// Full-window freeze.
	if frozen[0].Value != "id00041" || frozen[0].Slots != nil {
		t.Fatalf("frozen[0] = %+v", frozen[0])
	}
	// Point freeze on July 3 -> slot index 1.
	if frozen[1].Value != "id00283" || len(frozen[1].Slots) != 1 || frozen[1].Slots[0] != 1 {
		t.Fatalf("frozen[1] = %+v", frozen[1])
	}
	// Market freeze July 3-6 -> slots 1 (Jul 3) and 2 (Jul 6 starts before end Jul 6 00:00? No:
	// end is 2020-07-06 00:00:00, slot Jul 6 starts at 00:00, not before end -> only slot 1).
	if frozen[2].Attribute != "market" || len(frozen[2].Slots) != 1 || frozen[2].Slots[0] != 1 {
		t.Fatalf("frozen[2] = %+v", frozen[2])
	}
}

func TestFrozenElementJSONRoundTrip(t *testing.T) {
	f := FrozenElement{Attribute: "market", Value: "NYC", Start: "2020-07-03 00:00:00", End: "2020-07-06 00:00:00"}
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	var back FrozenElement
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != f {
		t.Fatalf("round trip %+v != %+v", back, f)
	}
	// Multiple selectors rejected.
	var bad FrozenElement
	if err := json.Unmarshal([]byte(`{"market":"NYC","common_id":"x"}`), &bad); err == nil {
		t.Fatal("multiple selectors accepted")
	}
	if err := json.Unmarshal([]byte(`{"start":"x"}`), &bad); err == nil {
		t.Fatal("selector-less frozen element accepted")
	}
	// Selectors that would collide with the period keys have no JSON form.
	for _, attr := range []string{"", "start", "end"} {
		if _, err := json.Marshal(FrozenElement{Attribute: attr, Value: "x"}); err == nil {
			t.Errorf("selector %q marshalled", attr)
		}
	}
}

func TestValidationErrors(t *testing.T) {
	mutate := func(edit func(m map[string]any)) error {
		var m map[string]any
		if err := json.Unmarshal([]byte(listing1), &m); err != nil {
			t.Fatal(err)
		}
		edit(m)
		data, _ := json.Marshal(m)
		_, err := Parse(data)
		return err
	}
	cases := []struct {
		name string
		edit func(m map[string]any)
	}{
		{"bad window start", func(m map[string]any) {
			m["scheduling_window"].(map[string]any)["start"] = "not a time"
		}},
		{"end before start", func(m map[string]any) {
			m["scheduling_window"].(map[string]any)["end"] = "2019-01-01 00:00:00"
		}},
		{"missing ESA", func(m map[string]any) {
			m["schedulable_attribute"] = ""
		}},
		{"bad conflict handling", func(m map[string]any) {
			m["constraints"].([]any)[0].(map[string]any)["value"] = "whatever"
		}},
		{"concurrency without capacity", func(m map[string]any) {
			delete(m["constraints"].([]any)[1].(map[string]any), "default_capacity")
		}},
		{"concurrency bad operator", func(m map[string]any) {
			m["constraints"].([]any)[1].(map[string]any)["operator"] = ">="
		}},
		{"localize without attribute", func(m map[string]any) {
			m["constraints"].([]any)[5].(map[string]any)["attribute"] = ""
		}},
		{"unknown template", func(m map[string]any) {
			m["constraints"].([]any)[5].(map[string]any)["name"] = "mystery"
		}},
		{"overflowing granularity", func(m map[string]any) {
			m["scheduling_window"].(map[string]any)["granularity"] = map[string]any{"metric": "hour", "value": 1 << 51}
		}},
		{"window over the step cap", func(m map[string]any) {
			// 10,001 hourly steps: one past MaxWindowSteps.
			m["scheduling_window"] = map[string]any{"start": "2020-01-01 00:00:00", "end": "2021-02-20 17:00:00",
				"granularity": map[string]any{"metric": "hour", "value": 1}}
		}},
		{"unknown granularity metric", func(m map[string]any) {
			m["scheduling_window"].(map[string]any)["granularity"] = map[string]any{"metric": "fortnight", "value": 1}
		}},
		{"duplicate conflict handling", func(m map[string]any) {
			cs := m["constraints"].([]any)
			m["constraints"] = append(cs, map[string]any{"name": "conflict_handling", "value": "zero-conflicts"})
		}},
	}
	for _, tc := range cases {
		if err := mutate(tc.edit); err == nil {
			t.Errorf("%s: validation passed, want error", tc.name)
		}
	}
}

// TestParseWindowStepCap pins the cap's edge: MaxWindowSteps hourly steps
// parse, one more is refused with the step count and the cap named, and a
// partial last step counts as a step.
func TestParseWindowStepCap(t *testing.T) {
	doc := func(end string) []byte {
		return []byte(`{"scheduling_window": {"start": "2020-01-01 00:00:00", "end": "` + end + `",
		  "granularity": {"metric": "hour", "value": 1}},
		  "schedulable_attribute": "common_id",
		  "constraints": [{"name": "concurrency", "base_attribute": "common_id", "default_capacity": 10}]}`)
	}
	if _, err := Parse(doc("2021-02-20 16:00:00")); err != nil {
		t.Fatalf("10,000 steps refused: %v", err)
	}
	for _, end := range []string{"2021-02-20 17:00:00", "2021-02-20 16:30:00"} {
		_, err := Parse(doc(end))
		if err == nil || !strings.Contains(err.Error(), "10001 steps") || !strings.Contains(err.Error(), "cap of 10000") {
			t.Errorf("window ending %s: err = %v, want the step count and the cap", end, err)
		}
	}
}

func TestParseRejectsTrailingData(t *testing.T) {
	for _, tail := range []string{" trailing {", "{}", "]", " 1", listing1} {
		if _, err := Parse([]byte(listing1 + tail)); err == nil {
			t.Errorf("document followed by %.12q accepted", tail)
		}
	}
	if _, err := Parse([]byte(listing1 + " \n\t\r\n")); err != nil {
		t.Errorf("trailing whitespace rejected: %v", err)
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	doc := strings.Replace(listing1, `"inventory"`, `"inventorry"`, 1)
	if _, err := Parse([]byte(doc)); err == nil {
		t.Fatal("unknown field accepted")
	}
}

func TestDefaultConflictAttribute(t *testing.T) {
	doc := strings.Replace(listing1, `"conflict_attribute": "common_id",`, ``, 1)
	r, err := Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if r.ConflictAttribute != "common_id" {
		t.Fatalf("CA default = %q", r.ConflictAttribute)
	}
}

func TestGranularityDuration(t *testing.T) {
	cases := []struct {
		g    Granularity
		want string
		ok   bool
	}{
		{Granularity{"day", 1}, "24h0m0s", true},
		{Granularity{"hour", 6}, "6h0m0s", true},
		{Granularity{"week", 1}, "168h0m0s", true},
		{Granularity{"", 0}, "24h0m0s", true}, // defaults
		{Granularity{"fortnight", 1}, "", false},
		{Granularity{"hour", 2562047}, "2562047h0m0s", true}, // the largest that fits
		{Granularity{"hour", 2562048}, "", false},
		{Granularity{"hour", 1 << 51}, "", false}, // wrapped around to 0s
		{Granularity{"week", 1 << 62}, "", false},
		{Granularity{"day", math.MaxInt}, "", false},
	}
	for _, tc := range cases {
		d, err := tc.g.Duration()
		if tc.ok != (err == nil) {
			t.Errorf("%+v: err=%v", tc.g, err)
			continue
		}
		if tc.ok && d.String() != tc.want {
			t.Errorf("%+v: %s, want %s", tc.g, d, tc.want)
		}
	}
}

func TestZeroConflictDefault(t *testing.T) {
	doc := `{
	  "scheduling_window": {"start": "2020-07-01 00:00:00", "end": "2020-07-03 00:00:00",
	    "granularity": {"metric":"day","value":1}},
	  "schedulable_attribute": "common_id",
	  "constraints": [
	    {"name": "concurrency", "base_attribute": "common_id", "default_capacity": 10}
	  ]
	}`
	r, err := Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if r.MinimizeConflicts() {
		t.Fatal("default should be zero tolerance")
	}
	slots, err := r.Timeslots()
	if err != nil || len(slots) != 2 {
		t.Fatalf("slots = %v, %v", slots, err)
	}
}

func TestMaintenanceWindowTrimsSlots(t *testing.T) {
	r, err := Parse([]byte(listing1))
	if err != nil {
		t.Fatal(err)
	}
	slots, err := r.Timeslots()
	if err != nil {
		t.Fatal(err)
	}
	// Listing 1's maintenance window is 0:00-6:00 local: each daily slot
	// must span exactly those six hours.
	for _, s := range slots {
		if s.Start.Hour() != 0 || s.End.Hour() != 6 {
			t.Fatalf("slot %d spans %v - %v, want 00:00-06:00", s.Index, s.Start, s.End)
		}
		if s.End.Sub(s.Start) != 6*time.Hour {
			t.Fatalf("slot %d width = %v", s.Index, s.End.Sub(s.Start))
		}
	}
}

func TestMaintenanceWindowValidation(t *testing.T) {
	doc := strings.Replace(listing1, `"start": "0:00", "end": "6:00"`, `"start": "6:00", "end": "2:00"`, 1)
	r, err := Parse([]byte(doc))
	if err != nil {
		t.Fatal(err) // parse succeeds; Timeslots rejects the inverted window
	}
	if _, err := r.Timeslots(); err == nil {
		t.Fatal("inverted maintenance window accepted")
	}
	doc2 := strings.Replace(listing1, `"start": "0:00", "end": "6:00"`, `"start": "zero", "end": "6:00"`, 1)
	r2, _ := Parse([]byte(doc2))
	if _, err := r2.Timeslots(); err == nil {
		t.Fatal("unparseable maintenance window accepted")
	}
}
