package orchestrator

import (
	"context"
	"fmt"
	"testing"

	"cornet/internal/testbed"
	"cornet/internal/workflow"
)

// noopInvoker answers every block at once, so the benchmarks below time
// the engine and dispatcher around the blocks, not the blocks.
var noopInvoker = InvokerFunc(func(context.Context, string, map[string]string) (map[string]string, error) {
	return map[string]string{"status": "success", "verdict": "no-impact"}, nil
})

// executeOnce returns one three-block workflow through Engine.Execute.
func executeOnce(tb testing.TB) func() {
	dep := deploy(tb, workflow.SoftwareUpgrade())
	eng := NewEngine(noopInvoker)
	inputs := map[string]string{"instance": "enb1", "sw_version": "v2"}
	return func() {
		if _, err := eng.Execute(context.Background(), dep, inputs); err != nil {
			tb.Fatal(err)
		}
	}
}

// dispatch24 returns one Dispatcher.Run of 24 changes over 6 slots at
// concurrency 4 — the shape of a composed generation.
func dispatch24(tb testing.TB) func() {
	dep := deploy(tb, workflow.SoftwareUpgrade())
	resolve := func(ScheduledChange) (*workflow.Deployment, error) { return dep, nil }
	var changes []ScheduledChange
	for i := 0; i < 24; i++ {
		changes = append(changes, ScheduledChange{Instance: fmt.Sprintf("enb-%02d", i), Timeslot: i % 6,
			Inputs: map[string]string{"sw_version": "v2"}})
	}
	d := NewDispatcher(NewEngine(noopInvoker), 4)
	return func() {
		if got := d.Run(context.Background(), resolve, changes); len(got) != len(changes) {
			tb.Fatalf("%d results for %d changes", len(got), len(changes))
		}
	}
}

func BenchmarkExecute(b *testing.B) {
	run := executeOnce(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

func BenchmarkDispatch24(b *testing.B) {
	run := dispatch24(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// The two budgets are what the benchmarks above read at PR 22, before the
// engine's emission was folded into recordBlock and emit: the folding is
// not allowed to cost the hot path an allocation.
func TestExecuteAllocBudget(t *testing.T) {
	got := testing.AllocsPerRun(200, executeOnce(t))
	t.Logf("Execute: %.0f allocs", got)
	if got > 58 {
		t.Errorf("Execute: %.0f allocs, budget 58", got)
	}
}

func TestDispatch24AllocBudget(t *testing.T) {
	got := testing.AllocsPerRun(50, dispatch24(t))
	t.Logf("Dispatcher.Run of 24: %.0f allocs", got)
	if got > 1466 {
		t.Errorf("Dispatcher.Run of 24: %.0f allocs, budget 1466", got)
	}
}

// BenchmarkEventVsWorkflow is the comparison the §3.2 remarks defer to
// future work: the Fig. 4 flow against the same testbed, composed as a
// workflow on Engine and as the policy set of eventdriven_test.go.
func BenchmarkEventVsWorkflow(b *testing.B) {
	newTB := func() *testbed.Testbed {
		tb := testbed.New(3)
		tb.MustAdd(testbed.NewNF("enb1", "eNodeB", "v0"))
		return tb
	}
	inputs := func(i int) map[string]string {
		return map[string]string{
			"instance": "enb1", "sw_version": fmt.Sprintf("v%d", i+1), "prior_version": fmt.Sprintf("v%d", i),
		}
	}
	b.Run("workflow", func(b *testing.B) {
		dep, err := workflow.Deploy(workflow.SoftwareUpgrade(), "eNodeB",
			func(block, nf string) (string, error) { return "/api/bb/" + block, nil })
		if err != nil {
			b.Fatal(err)
		}
		eng := NewEngine(newTB())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Execute(context.Background(), dep, inputs(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("event-driven", func(b *testing.B) {
		eng := NewEventEngine(newTB(), UpgradePolicies())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Run(context.Background(), Event{Topic: "change.requested", Data: inputs(i)}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
