// Resilience: execute upgrade workflows against a testbed that misbehaves
// the way §5.1 says production does — transient errors, dead endpoints,
// bouncing NFs — and watch the execution policies (per-attempt timeouts,
// retries with jittered backoff, circuit breakers, failure actions) carry
// the change through or back it out cleanly.
//
// Three scenarios:
//  1. a 30% transient error rate, absorbed by retries;
//  2. a blackholed NF that exhausts its timeout budget, trips the
//     breaker, and triggers an automatic roll-back;
//  3. a hard failure handled by pause → operator repair → resume.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"cornet/internal/catalog"
	"cornet/internal/core"
	"cornet/internal/orchestrator"
	"cornet/internal/orchestrator/resilience"
	"cornet/internal/testbed"
	"cornet/internal/workflow"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	tb := testbed.New(42)
	tb.MustAdd(testbed.NewNF("vce-001", "vCE", "v1"))

	// Engine-wide execution defaults: every block gets a 2s per-attempt
	// timeout and up to 5 attempts with 50ms jittered exponential
	// backoff. Breakers trip an API after 3 consecutive failures.
	f := core.New(map[string]catalog.ImplKind{"vCE": catalog.ImplScript},
		core.WithInvoker(tb),
		core.WithExecutionDefaults(resilience.Policy{
			Timeout:     resilience.Duration(2 * time.Second),
			MaxAttempts: 5,
			Backoff:     resilience.Backoff{Base: resilience.Duration(50 * time.Millisecond), Jitter: 0.2},
		}),
		core.WithBreakers(resilience.BreakerConfig{
			Threshold: 3,
			Cooldown:  resilience.Duration(5 * time.Second),
		}))

	dep, err := f.DeployWorkflow(workflow.SoftwareUpgrade(), "vCE")
	if err != nil {
		return fmt.Errorf("deploy: %w", err)
	}

	// --- Scenario 1: transient faults absorbed by retries -------------
	fmt.Fprintln(w, "--- scenario 1: 30% transient error rate, retried success ---")
	if err := tb.SetFault(testbed.FaultTargetAll, testbed.FaultSpec{ErrorRate: 0.3}); err != nil {
		return err
	}
	exec, err := f.Execute(context.Background(), dep, map[string]string{
		"instance": "vce-001", "sw_version": "v2", "prior_version": "v1",
	})
	if err != nil {
		return fmt.Errorf("execute: %w", err)
	}
	printLogs(w, exec)
	tb.ClearFaults()

	// --- Scenario 2: blackhole → breaker trip → rollback --------------
	fmt.Fprintln(w, "\n--- scenario 2: blackholed NF, breaker trips, automatic roll-back ---")
	// A focused upgrade-only workflow: short per-attempt timeouts on the
	// upgrade block, roll back when the budget is gone. Four attempts
	// against a breaker threshold of three means the last attempt is
	// rejected by the breaker without touching the dead box.
	wf2 := workflow.New("upgrade-only")
	wf2.AddInput("instance", true, "")
	wf2.AddInput("sw_version", true, "")
	wf2.AddNode(workflow.Node{ID: "start", Kind: workflow.Start}).
		AddNode(workflow.Node{ID: "upgrade", Kind: workflow.Task, Block: catalog.BBSoftwareUpg,
			Policy: &resilience.Policy{
				Timeout:     resilience.Duration(150 * time.Millisecond),
				MaxAttempts: 4,
				OnExhausted: resilience.ActionRollback,
			},
			Saves: map[string]string{"status": "upgrade_status"}}).
		AddNode(workflow.Node{ID: "end", Kind: workflow.End})
	wf2.AddEdge("start", "upgrade", "").AddEdge("upgrade", "end", "")
	dep2, err := f.DeployWorkflow(wf2, "vCE")
	if err != nil {
		return fmt.Errorf("deploy: %w", err)
	}
	if err := tb.SetFault("vce-001", testbed.FaultSpec{Mode: testbed.FaultModeBlackhole}); err != nil {
		return err
	}
	exec, err = f.Execute(context.Background(), dep2, map[string]string{
		"instance": "vce-001", "sw_version": "v3",
	})
	fmt.Fprintf(w, "status: %s (err: %v)\n", exec.Status, err)
	fmt.Fprintf(w, "last failure action: %s\n", exec.LastAction())
	// The compensation ran while the box was still dark, so its log
	// entry shows a failure too — exactly what an operator would triage.
	printLogs(w, exec)
	tb.ClearFaults()
	// The upgrade API's breaker is still open from the trip; the operator
	// force-closes it after repairing the box rather than waiting out the
	// cooldown.
	f.Engine.Breakers.Reset(dep2.BlockAPIs[catalog.BBSoftwareUpg])

	// --- Scenario 3: pause, repair, resume ----------------------------
	fmt.Fprintln(w, "\n--- scenario 3: hard failure, pause for the operator, resume ---")
	wf3 := workflow.SoftwareUpgrade()
	for i := range wf3.Nodes {
		if wf3.Nodes[i].Block == catalog.BBSoftwareUpg {
			wf3.Nodes[i].Policy = &resilience.Policy{
				MaxAttempts: 2,
				OnExhausted: resilience.ActionPause,
			}
		}
	}
	dep3, err := f.DeployWorkflow(wf3, "vCE")
	if err != nil {
		return fmt.Errorf("deploy: %w", err)
	}
	// Flap windows of three calls: calls 0-2 pass, 3-5 fail, 6-8 pass.
	// The health check takes call 0; two warm-up invocations burn the
	// rest of the up window so both upgrade attempts (calls 3 and 4)
	// land in the down window and the workflow pauses.
	if err := tb.SetFault("vce-001", testbed.FaultSpec{Mode: testbed.FaultModeFlap, FlapPeriod: 3}); err != nil {
		return err
	}
	for i := 0; i < 2; i++ {
		if _, err := tb.Invoke(context.Background(), dep3.BlockAPIs[catalog.BBHealthCheck],
			map[string]string{"instance": "vce-001"}); err != nil {
			return err
		}
	}
	execution, done := f.Engine.Start(context.Background(), dep3, map[string]string{
		"instance": "vce-001", "sw_version": "v3", "prior_version": "v2",
	})
	for !execution.Paused() {
		time.Sleep(5 * time.Millisecond)
	}
	fmt.Fprintln(w, "workflow paused; operator repairs the NF and resumes")
	tb.ClearFaults() // the repair
	execution.Resume()
	<-done
	fmt.Fprintf(w, "status after resume: %s\n", execution.Status)
	printLogs(w, execution)

	nf, _ := tb.Get("vce-001")
	fmt.Fprintf(w, "\nvce-001 now runs %s\n", nf.ActiveVersion())
	return nil
}

func printLogs(w io.Writer, exec *orchestrator.Execution) {
	for _, l := range exec.Logs {
		attempts := ""
		if l.Attempts > 1 {
			attempts = fmt.Sprintf(" (attempts: %d)", l.Attempts)
		}
		action := ""
		if l.Action != "" && l.Action != resilience.ActionContinue {
			action = fmt.Sprintf(" [action: %s]", l.Action)
		}
		fmt.Fprintf(w, "  block %-22s %-10s%s%s\n", l.Block, l.Status, attempts, action)
	}
}
