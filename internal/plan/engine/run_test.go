package engine_test

// These tests hold core.RunPlan, the one producer of Stats, to the
// contract this package states: one winning entry for the backend whose
// representation the request carries, the search counters copied through,
// and the run traced as one "plan.solve" span.

import (
	"context"
	"fmt"
	"testing"

	"cornet/internal/catalog"
	"cornet/internal/core"
	"cornet/internal/inventory"
	"cornet/internal/netgen"
	"cornet/internal/obs"
	"cornet/internal/plan/engine"
	"cornet/internal/plan/heuristic"
	"cornet/internal/plan/intent"
	"cornet/internal/plan/model"
	"cornet/internal/plan/solver"
	"cornet/internal/testbed"
)

const testIntent = `{
  "scheduling_window": {"start": "2020-07-01 00:00:00", "end": "2020-07-15 00:00:00",
    "granularity": {"metric":"day","value":1}},
  "schedulable_attribute": "common_id",
  "constraints": [
    {"name": "concurrency", "base_attribute": "common_id", "default_capacity": 6},
    {"name": "consistency", "attribute": "usid"}
  ]
}`

func testFramework() *core.Framework {
	return core.New(map[string]catalog.ImplKind{
		"eNodeB": catalog.ImplVendorCLI, "gNodeB": catalog.ImplVendorCLI,
	}, core.WithInvoker(testbed.New(1)))
}

func testFleet(t *testing.T) *inventory.Inventory {
	t.Helper()
	net, err := netgen.Cellular(netgen.CellularConfig{
		Seed: 1, Markets: 1, TACsPerMarket: 2, USIDsPerTAC: 5,
		GNodeBFraction: 1, EMSCount: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return net.Inv
}

// tracedPlan plans testIntent on testFleet under a trace and returns the
// result, the one plan.solve span and the fleet's size.
func tracedPlan(t *testing.T, f *core.Framework, opt core.PlanOptions) (*core.PlanResult, *obs.SpanExport, int) {
	t.Helper()
	fleet := testFleet(t)
	ctx, root := obs.StartTrace(context.Background(), "test")
	res, err := f.PlanScheduleContext(ctx, []byte(testIntent), fleet, opt)
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	tree := root.Export()
	if tree.Find("plan.engine") != nil {
		t.Fatal("trace still carries a plan.engine span")
	}
	sp := tree.Find("plan.solve")
	if sp == nil {
		t.Fatal("no plan.solve span")
	}
	return res, sp, fleet.Len()
}

// TestPlanRunsTheCarriedRepresentation checks a run solves on the backend
// whose representation the built request carries, as the one flagged
// winner.
func TestPlanRunsTheCarriedRepresentation(t *testing.T) {
	req, err := intent.Parse([]byte(testIntent))
	if err != nil {
		t.Fatal(err)
	}
	fleet := testFleet(t)
	for _, p := range []engine.Policy{engine.ForceSolver, engine.ForceHeuristic} {
		f := testFramework()
		f.SolverOptions = solver.Options{FirstSolutionOnly: true}
		opt := core.PlanOptions{Policy: p, Seed: 1}
		b, err := f.BuildPlanRequest(context.Background(), req, fleet, opt)
		if err != nil {
			t.Fatal(err)
		}
		if (b.Req.Model != nil) != (p == engine.ForceSolver) {
			t.Fatalf("%s: built the wrong representation", p)
		}
		res, err := f.RunPlan(context.Background(), b, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Stats) != 1 || res.Stats[0].Backend != string(p) || !res.Stats[0].Winner {
			t.Fatalf("stats = %+v, want single winning %s entry", res.Stats, p)
		}
		if len(res.Assignment)+len(res.Leftovers) != fleet.Len() {
			t.Fatalf("%s: partition broken: %d + %d != %d", p, len(res.Assignment), len(res.Leftovers), fleet.Len())
		}
		if p == engine.ForceHeuristic && res.Stats[0].Restarts != heuristic.DefaultRestarts {
			t.Fatalf("restarts = %d, want the default %d", res.Stats[0].Restarts, heuristic.DefaultRestarts)
		}
	}
}

// TestFromScheduleCopiesStealCounters checks a solver schedule's search
// counters reach the run's Stats.
func TestFromScheduleCopiesStealCounters(t *testing.T) {
	f := testFramework()
	f.SolveModel = func(_ context.Context, m *model.Model, _ solver.Options) (model.Schedule, error) {
		return model.Schedule{
			Slots: make([]int, len(m.Items)), Cost: 7, Optimal: true, Workers: 4,
			Nodes: 100, Steals: 3, Splits: 9, ReplayNodes: 21,
		}, nil
	}
	res, err := f.PlanScheduleContext(context.Background(), []byte(testIntent), testFleet(t), core.PlanOptions{Policy: engine.ForceSolver})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats[0]
	if st.Steals != 3 || st.Splits != 9 || st.ReplayNodes != 21 {
		t.Fatalf("steal counters not copied: %+v", st)
	}
	if st.Nodes != 100 || st.Workers != 4 || st.NodesPerWorker != 25 || st.Objective != 7 || st.TimedOut {
		t.Fatalf("search counters not copied: %+v", st)
	}
}

// TestPlanEmitsBackendSpans checks a traced run yields one plan.solve span
// carrying the uniform stats attributes.
func TestPlanEmitsBackendSpans(t *testing.T) {
	f := testFramework()
	f.SolveModel = func(_ context.Context, m *model.Model, _ solver.Options) (model.Schedule, error) {
		return model.Schedule{
			Slots: make([]int, len(m.Items)), Cost: 7, Optimal: true, Workers: 4,
			Nodes: 100, Steals: 3, Splits: 9, ReplayNodes: 21,
		}, nil
	}
	_, sp, size := tracedPlan(t, f, core.PlanOptions{})
	for k, want := range map[string]any{
		"backend": "solver", "size": size, "nodes": 100, "workers": 4,
		"steals": 3, "splits": 9, "replay_nodes": 21, "objective": 7, "conflicts": 0,
	} {
		if got := sp.Attrs[k]; fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("plan.solve %s = %v, want %v", k, got, want)
		}
	}
}

// TestIncumbentEventsOnBackendSpan checks each backend's incumbent
// improvements surface as events on the plan.solve span.
func TestIncumbentEventsOnBackendSpan(t *testing.T) {
	for policy, attr := range map[engine.Policy]string{engine.ForceSolver: "cost", engine.ForceHeuristic: "timezone"} {
		f := testFramework()
		f.SolverOptions = solver.Options{FirstSolutionOnly: true}
		_, sp, _ := tracedPlan(t, f, core.PlanOptions{Policy: policy, Parallelism: 1})
		if sp.Attrs["backend"] != string(policy) {
			t.Fatalf("%s: plan.solve backend = %v", policy, sp.Attrs["backend"])
		}
		found := false
		for _, ev := range sp.Events {
			if ev.Msg == "incumbent-improved" {
				if _, ok := ev.Attrs[attr]; !ok {
					t.Fatalf("%s: incumbent event missing %s: %v", policy, attr, ev.Attrs)
				}
				found = true
			}
		}
		if !found {
			t.Fatalf("%s: no incumbent-improved event on plan.solve: %+v", policy, sp.Events)
		}
	}
}

// TestChainStealComposesAndTolerantOfNil checks the solver hooks a run
// installs call a caller's own OnIncumbent and OnSteal before recording
// on the span, and run without them when the caller set none.
func TestChainStealComposesAndTolerantOfNil(t *testing.T) {
	solve := func(_ context.Context, m *model.Model, o solver.Options) (model.Schedule, error) {
		o.OnIncumbent(7, 40)
		o.OnSteal(1, 2, 3)
		return model.Schedule{Slots: make([]int, len(m.Items)), Cost: 7, Optimal: true}, nil
	}
	var order []string
	f := testFramework()
	f.SolveModel = solve
	f.SolverOptions = solver.Options{
		OnIncumbent: func(c, n int64) { order = append(order, fmt.Sprintf("incumbent:%d/%d", c, n)) },
		OnSteal:     func(s, sp, r int64) { order = append(order, fmt.Sprintf("steal:%d/%d/%d", s, sp, r)) },
	}
	_, sp, _ := tracedPlan(t, f, core.PlanOptions{})
	if want := []string{"incumbent:7/40", "steal:1/2/3"}; fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("caller hooks saw %v, want %v", order, want)
	}
	var msgs []string
	for _, ev := range sp.Events {
		msgs = append(msgs, ev.Msg)
	}
	if want := []string{"incumbent-improved", "steal-rate"}; fmt.Sprint(msgs) != fmt.Sprint(want) {
		t.Fatalf("plan.solve events %v, want %v", msgs, want)
	}

	f = testFramework()
	f.SolveModel = solve
	_, sp, _ = tracedPlan(t, f, core.PlanOptions{})
	if len(sp.Events) != 2 {
		t.Fatalf("without caller hooks, plan.solve events = %+v", sp.Events)
	}
}
