package core

import (
	"context"
	"strings"
	"testing"

	"cornet/internal/catalog"
	"cornet/internal/inventory"
	"cornet/internal/plan/intent"
)

func checkInventory() *inventory.Inventory {
	inv := inventory.New()
	for i := 0; i < 8; i++ {
		usid := []string{"u0", "u0", "u1", "u1", "u2", "u2", "u3", "u3"}[i]
		inv.MustAdd(&inventory.Element{
			ID: []string{"a", "b", "c", "d", "e", "f", "g", "h"}[i],
			Attributes: map[string]string{
				inventory.AttrUSID:   usid,
				inventory.AttrMarket: "m" + usid,
			},
		})
	}
	return inv
}

func checkRequest(t *testing.T) *intent.Request {
	t.Helper()
	req, err := intent.Parse([]byte(`{
	  "scheduling_window": {"start": "2022-01-01 00:00:00", "end": "2022-01-05 00:00:00",
	    "granularity": {"metric":"day","value":1}},
	  "schedulable_attribute": "common_id",
	  "conflict_table": {
	    "a": [{"start": "2022-01-01 00:00:00", "end": "2022-01-02 00:00:00"}]
	  },
	  "constraints": [
	    {"name": "concurrency", "base_attribute": "common_id", "default_capacity": 3},
	    {"name": "consistency", "attribute": "usid"}
	  ]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	return req
}

func TestCheckScheduleConformant(t *testing.T) {
	f := New(map[string]catalog.ImplKind{})
	inv := checkInventory()
	// Co-USID pairs share slots, at most 3 nodes per slot, and "a" avoids
	// its conflicting slot 0: conformant.
	assignment := map[string]int{
		"a": 1, "b": 1, // u0
		"c": 2, "d": 2, // u1
		"e": 3, "f": 3, // u2
	}
	problems, err := f.CheckScheduleContext(context.Background(), checkRequest(t), inv, assignment, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 0 {
		t.Fatalf("conformant schedule flagged: %v", problems)
	}
}

func TestCheckScheduleViolations(t *testing.T) {
	f := New(map[string]catalog.ImplKind{})
	inv := checkInventory()

	// Capacity violation (4 nodes in one slot, cap 3) plus a consistency
	// break (c and d are co-USID but split across slots).
	assignment := map[string]int{"a": 1, "b": 1, "c": 1, "d": 2, "e": 1}
	problems, err := f.CheckScheduleContext(context.Background(), checkRequest(t), inv, assignment, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(problems, "\n")
	if !strings.Contains(joined, "consistency") {
		t.Fatalf("consistency break not flagged: %v", problems)
	}

	// Zero-tolerance conflict: a conflicts on slot 0 (Jan 1).
	assignment2 := map[string]int{"a": 0, "b": 0, "c": 0, "d": 0, "e": 0}
	problems, err = f.CheckScheduleContext(context.Background(), checkRequest(t), inv, assignment2, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	joined = strings.Join(problems, "\n")
	if !strings.Contains(joined, "conflict") || !strings.Contains(joined, "capacity") {
		t.Fatalf("conflict/capacity not flagged: %v", problems)
	}

	// Unknown element and out-of-range slot are errors, not violations.
	if _, err := f.CheckScheduleContext(context.Background(), checkRequest(t), inv, map[string]int{"zz": 0}, PlanOptions{}); err == nil {
		t.Fatal("unknown element accepted")
	}
	if _, err := f.CheckScheduleContext(context.Background(), checkRequest(t), inv, map[string]int{"a": 99}, PlanOptions{}); err == nil {
		t.Fatal("out-of-range slot accepted")
	}
}
