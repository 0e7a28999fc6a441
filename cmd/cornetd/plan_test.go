package main

import (
	"io"
	"net/http"
	"regexp"
	"strings"
	"testing"
)

// postDoc posts an intent document to /api/plan with the given query and
// returns the status code and body.
func postDoc(t *testing.T, url, query, doc string) (int, string) {
	t.Helper()
	resp, err := http.Post(url+"/api/plan?"+query, "application/json", strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestPlanStatsWire pins the keys, their order and their omissions in the
// /api/plan answer's stats entry for each backend.
func TestPlanStatsWire(t *testing.T) {
	_, srv := testServer(t)
	doc := `{
	  "scheduling_window": {"start": "2022-03-01 00:00:00", "end": "2022-03-15 00:00:00",
	    "granularity": {"metric":"day","value":1}},
	  "schedulable_attribute": "common_id",
	  "constraints": [
	    {"name": "concurrency", "base_attribute": "common_id", "default_capacity": 30}
	  ]
	}`
	for backend, want := range map[string]string{
		"solver": `"stats":\[\{"backend":"solver","wall_ns":\d+,"nodes":\d+,"workers":1,"nodes_per_worker":\d+,` +
			`"objective":\d+,"conflicts":0,"winner":true\}\],`,
		"heuristic": `"stats":\[\{"backend":"heuristic","wall_ns":\d+,"restarts":8,"workers":1,` +
			`"objective":\d+,"conflicts":0,"winner":true\}\],`,
	} {
		code, body := postDoc(t, srv.URL, "parallelism=1&backend="+backend, doc)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", backend, code, body)
		}
		if !regexp.MustCompile(want).MatchString(body) {
			t.Errorf("%s: stats entry does not match %s:\n%s", backend, want, body)
		}
	}
}

// TestPlanHeuristicRefusesListing1 posts the Appendix-B Listing 1 document
// under ?backend=heuristic: Algorithm 1 cannot honour its per-market and
// per-pool caps or its frozen elements, so the answer is a 422 naming the
// first constraint it would drop, not a schedule that ignores them.
func TestPlanHeuristicRefusesListing1(t *testing.T) {
	_, srv := testServer(t)
	listing1 := `{
	  "scheduling_window": {"start": "2020-07-01 00:00:00", "end": "2020-07-07 23:59:00",
	    "granularity": {"metric": "day", "value": 1}},
	  "maintenance_window": {"start": "0:00", "end": "6:00", "granularity": "hour", "timezone": "local"},
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
	    "id000001": [{"start": "2020-07-01 00:00:00", "end": "2020-07-04 00:00:00", "tickets": ["CHG000005482383"]}]
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
	code, body := postDoc(t, srv.URL, "backend=heuristic", listing1)
	if code != http.StatusUnprocessableEntity || !strings.Contains(body, "cannot express constraint 2 (concurrency on market)") {
		t.Fatalf("status %d, body %q: want 422 naming constraint 2", code, body)
	}
}
