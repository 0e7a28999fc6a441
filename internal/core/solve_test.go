package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"cornet/internal/inventory"
	"cornet/internal/netgen"
	"cornet/internal/obs"
	"cornet/internal/plan/engine"
	"cornet/internal/plan/heuristic"
	"cornet/internal/testbed"
)

// solveFleet is the 600-element cellular fleet of ROADMAP item 10's
// measurements: with ScaleThreshold 100 it plans as a 1,000+ element
// request does by default.
func solveFleet(t *testing.T) *inventory.Inventory {
	t.Helper()
	net, err := netgen.Cellular(netgen.CellularConfig{
		Seed: 2, Markets: 2, TACsPerMarket: 5, USIDsPerTAC: 30,
		GNodeBFraction: 1, EMSCount: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	enbs := net.Inv.ByAttr("nf_type", "eNodeB")
	gnbs := net.Inv.ByAttr("nf_type", "gNodeB")
	return net.Inv.Subset(append(enbs, gnbs...))
}

// intentWith is planIntent(100) with extra constraints appended.
func intentWith(extra string) []byte {
	return []byte(`{
	  "scheduling_window": {"start": "2020-07-01 00:00:00", "end": "2020-07-15 00:00:00",
	    "granularity": {"metric":"day","value":1}},
	  "schedulable_attribute": "common_id",
	  "constraints": [
	    {"name": "concurrency", "base_attribute": "common_id", "default_capacity": 100},
	    {"name": "consistency", "attribute": "usid"}` + extra + `
	  ]
	}`)
}

// TestHeuristicRefusesWhatItCannotExpress checks the two intents on which
// Algorithm 1 used to answer with a schedule that breaks the intent: forced
// onto the heuristic they are refused with a typed error naming the
// constraint, and under Threshold they take the solver, whose answer the
// checker passes.
func TestHeuristicRefusesWhatItCannotExpress(t *testing.T) {
	fleet := solveFleet(t)
	for _, tc := range []struct {
		name, extra, named string
	}{
		{"consistency on tac", `, {"name": "consistency", "attribute": "tac"}`, "constraint 2 (consistency on tac)"},
		{"concurrency per tac", `, {"name": "concurrency", "base_attribute": "common_id", "aggregate_attribute": "tac", "default_capacity": 10}`,
			"constraint 2 (concurrency on common_id per tac)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := framework(testbed.New(1))
			f.ScaleThreshold = 100
			doc := intentWith(tc.extra)
			_, err := f.PlanScheduleContext(context.Background(), doc, fleet, PlanOptions{Policy: engine.ForceHeuristic, Seed: 3})
			if !errors.Is(err, ErrUnsupported) || !strings.Contains(err.Error(), tc.named) {
				t.Fatalf("forced heuristic: err = %v, want ErrUnsupported naming %q", err, tc.named)
			}
			res, err := f.PlanScheduleContext(context.Background(), doc, fleet, PlanOptions{Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			if res.Method != "solver" {
				t.Fatalf("Threshold above ScaleThreshold answered with %s, want the solver", res.Method)
			}
			problems, err := f.CheckScheduleContext(context.Background(), mustParseIntent(t, doc), fleet, res.Assignment, PlanOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if len(problems) != 0 {
				t.Fatalf("%d problems: %v", len(problems), problems)
			}
		})
	}
}

// TestHeuristicKeepsWhatItExpresses checks the intents Algorithm 1 honours
// still plan heuristically above the threshold.
func TestHeuristicKeepsWhatItExpresses(t *testing.T) {
	fleet := solveFleet(t)
	f := framework(testbed.New(1))
	f.ScaleThreshold = 100
	for _, extra := range []string{
		``,
		`, {"name": "conflict_handling", "value": "minimize-conflicts"},
		   {"name": "concurrency", "base_attribute": "common_id", "aggregate_attribute": "ems", "default_capacity": 40},
		   {"name": "uniformity", "attribute": "timezone", "value": 0},
		   {"name": "localize", "attribute": "market"}`,
	} {
		b, err := f.BuildPlanRequest(context.Background(), mustParseIntent(t, intentWith(extra)), fleet, PlanOptions{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if b.Policy != engine.ForceHeuristic || b.Req.Instance == nil || b.Req.Model != nil {
			t.Fatalf("intent with %q resolved to %s", extra, b.Policy)
		}
	}
}

// TestHeuristicRefusalNamesTheDroppedPart covers the request-level parts
// of an intent Algorithm 1 would drop.
func TestHeuristicRefusalNamesTheDroppedPart(t *testing.T) {
	inv := inventory.New()
	for i := 0; i < 4; i++ {
		inv.MustAdd(&inventory.Element{ID: fmt.Sprint("e", i), Attributes: map[string]string{inventory.AttrUSID: "u"}})
	}
	long := inventory.New()
	long.MustAdd(&inventory.Element{ID: "e0", Attributes: map[string]string{inventory.AttrDuration: "3"}})
	base := `"scheduling_window": {"start": "2020-07-01 00:00:00", "end": "2020-07-15 00:00:00",
	    "granularity": {"metric":"day","value":1}}, "constraints": []`
	for _, tc := range []struct {
		doc   string
		inv   *inventory.Inventory
		named string
	}{
		{`{` + base + `, "schedulable_attribute": "usid"}`, inv, `schedulable_attribute "usid"`},
		{`{` + base + `, "schedulable_attribute": "common_id", "conflict_attribute": "usid",
		   "conflict_table": {"u": [{"start": "2020-07-01 00:00:00", "end": "2020-07-02 00:00:00"}]}}`, inv, `conflict_attribute "usid"`},
		{`{` + base + `, "schedulable_attribute": "common_id",
		   "conflict_table": {"e0": [{"start": "2020-07-01 00:00:00", "end": "2020-07-02 00:00:00"}]}}`, inv, "zero-conflicts"},
		{`{` + base + `, "schedulable_attribute": "common_id", "frozen_elements": [{"common_id": "e0"}]}`, inv, "frozen_elements"},
		{`{` + base + `, "schedulable_attribute": "common_id", "change_duration": 2}`, inv, "change_duration 2"},
		{`{` + base + `, "schedulable_attribute": "common_id"}`, long, "elements with duration_mw 3"},
		{`{"scheduling_window": {"start": "2020-07-01 00:00:00", "end": "2020-07-15 00:00:00",
		    "granularity": {"metric":"day","value":1}}, "schedulable_attribute": "common_id",
		  "constraints": [{"name": "concurrency", "base_attribute": "common_id", "default_capacity": 2,
		    "granularity": {"metric": "week", "value": 1}}]}`, inv, "constraint 0 (concurrency on common_id every 1 week)"},
	} {
		_, _, err := heuristicInstance(mustParseIntent(t, []byte(tc.doc)), tc.inv, PlanOptions{})
		if !errors.Is(err, ErrUnsupported) || !strings.Contains(err.Error(), tc.named) {
			t.Errorf("err = %v, want ErrUnsupported naming %q", err, tc.named)
		}
	}
}

// TestHeuristicInstanceDefaults checks the restart budget and the
// large-neighbourhood phase the instance carries from 5,000 elements on.
func TestHeuristicInstanceDefaults(t *testing.T) {
	req := mustParseIntent(t, planIntent(100))
	for _, n := range []int{4999, 5000} {
		inv := inventory.New()
		for i := 0; i < n; i++ {
			inv.MustAdd(&inventory.Element{ID: fmt.Sprint("e", i)})
		}
		inst, _, err := heuristicInstance(req, inv, PlanOptions{})
		if err != nil {
			t.Fatal(err)
		}
		wantLNS := 0
		if n >= 5000 {
			wantLNS = heuristic.DefaultRestarts
		}
		if inst.Restarts != heuristic.DefaultRestarts || inst.LNSRestarts != wantLNS {
			t.Fatalf("n=%d: restarts %d, LNS restarts %d; want %d, %d", n, inst.Restarts, inst.LNSRestarts, heuristic.DefaultRestarts, wantLNS)
		}
	}
}

// TestUntracedPlanRecordsNoSpan checks a plan off-trace starts no span.
func TestUntracedPlanRecordsNoSpan(t *testing.T) {
	ctx, sp := startPlanRun(context.Background(), "solver", 1)
	if sp.sp != nil || obs.FromContext(ctx) != nil {
		t.Fatal("an untraced plan started a span")
	}
}
