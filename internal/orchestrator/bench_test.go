package orchestrator

import (
	"context"
	"fmt"
	"testing"

	"cornet/internal/workflow"
)

// noopInvoker answers every block at once, so the benchmarks below time
// the engine and dispatcher around the blocks, not the blocks.
var noopInvoker = InvokerFunc(func(context.Context, string, map[string]string) (map[string]string, error) {
	return map[string]string{"status": "success", "verdict": "no-impact"}, nil
})

// BenchmarkExecute is one three-block workflow through Engine.Execute.
func BenchmarkExecute(b *testing.B) {
	dep := deploy(b, workflow.SoftwareUpgrade())
	eng := NewEngine(noopInvoker)
	inputs := map[string]string{"instance": "enb1", "sw_version": "v2"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Execute(context.Background(), dep, inputs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDispatch24 is one Dispatcher.Run of 24 changes over 6 slots at
// concurrency 4 — the shape of a composed generation.
func BenchmarkDispatch24(b *testing.B) {
	dep := deploy(b, workflow.SoftwareUpgrade())
	resolve := func(ScheduledChange) (*workflow.Deployment, error) { return dep, nil }
	var changes []ScheduledChange
	for i := 0; i < 24; i++ {
		changes = append(changes, ScheduledChange{Instance: fmt.Sprintf("enb-%02d", i), Timeslot: i % 6,
			Inputs: map[string]string{"sw_version": "v2"}})
	}
	d := NewDispatcher(NewEngine(noopInvoker), 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := d.Run(context.Background(), resolve, changes); len(got) != len(changes) {
			b.Fatalf("%d results for %d changes", len(got), len(changes))
		}
	}
}
