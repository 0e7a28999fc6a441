package engine

import (
	"context"
	"testing"

	"cornet/internal/obs"
)

// TestPlanEmitsBackendSpans checks a traced Plan call yields the engine
// span with a per-backend child carrying the uniform stats attributes.
func TestPlanEmitsBackendSpans(t *testing.T) {
	e := &Engine{}
	req := modelRequest(6, 3)

	ctx, root := obs.StartTrace(context.Background(), "test")
	_, _, err := e.Plan(ctx, req, Options{})
	if err != nil {
		t.Fatal(err)
	}
	root.End()

	tree := root.Export()
	eng := tree.Find("plan.engine")
	if eng == nil {
		t.Fatal("no plan.engine span")
	}
	if eng.Attrs["policy"] != string(ForceSolver) {
		t.Fatalf("policy attr = %v", eng.Attrs["policy"])
	}
	if eng.Attrs["winner"] != "solver" {
		t.Fatalf("winner attr = %v", eng.Attrs["winner"])
	}
	b := tree.Find("plan.backend.solver")
	if b == nil {
		t.Fatal("no plan.backend.solver span")
	}
	if b.Attrs["backend"] != "solver" {
		t.Fatalf("backend attr = %v", b.Attrs["backend"])
	}
	if _, ok := b.Attrs["objective"]; !ok {
		t.Fatalf("backend span missing objective attr: %v", b.Attrs)
	}
}

// TestIncumbentEventsOnBackendSpan checks the solver's incumbent
// improvements surface as events on its backend span.
func TestIncumbentEventsOnBackendSpan(t *testing.T) {
	e := &Engine{}
	req := modelRequest(8, 4)

	ctx, root := obs.StartTrace(context.Background(), "test")
	if _, _, err := e.Plan(ctx, req, Options{}); err != nil {
		t.Fatal(err)
	}
	root.End()

	b := root.Export().Find("plan.backend.solver")
	if b == nil {
		t.Fatal("no solver span")
	}
	found := false
	for _, ev := range b.Events {
		if ev.Msg == "incumbent-improved" {
			found = true
			if _, ok := ev.Attrs["cost"]; !ok {
				t.Fatalf("incumbent event missing cost attr: %v", ev.Attrs)
			}
		}
	}
	if !found {
		t.Fatalf("no incumbent-improved event on solver span: %+v", b.Events)
	}
}

// TestUntracedPlanNoSpans checks plans stay span-free off-trace.
func TestUntracedPlanNoSpans(t *testing.T) {
	e := &Engine{}
	req := modelRequest(4, 2)
	if _, _, err := e.Plan(context.Background(), req, Options{}); err != nil {
		t.Fatal(err)
	}
}
