// Quickstart: assemble CORNET, design the Fig. 4 software-upgrade
// workflow, verify it against the catalog, deploy it for a vCE router, and
// execute it on the simulated testbed — including the automatic roll-back
// path when the post-change comparison detects a degradation.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"

	"cornet/internal/catalog"
	"cornet/internal/core"
	"cornet/internal/testbed"
	"cornet/internal/workflow"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// A testbed with one virtualized customer-edge router running v1.
	tb := testbed.New(42)
	tb.MustAdd(testbed.NewNF("vce-001", "vCE", "v1"))

	// The framework seeds the Table 2 building-block catalog; vCE blocks
	// are implemented as command-line scripts, like the paper's testbed.
	f := core.New(map[string]catalog.ImplKind{"vCE": catalog.ImplScript},
		core.WithInvoker(tb))

	fmt.Fprintf(w, "catalog: %d building blocks registered\n", f.Catalog.Len())

	// Design-time verification (zombie check + parameter flow), then
	// deployment: CORNET generates the artifact and its REST API.
	wf := workflow.SoftwareUpgrade()
	dep, err := f.DeployWorkflow(wf, "vCE")
	if err != nil {
		return fmt.Errorf("deploy: %w", err)
	}
	fmt.Fprintf(w, "deployed %q for vCE at %s\n", dep.WorkflowName, dep.API)

	// Execute the upgrade to v2.
	exec, err := f.Execute(context.Background(), dep, map[string]string{
		"instance": "vce-001", "sw_version": "v2", "prior_version": "v1",
	})
	if err != nil {
		return fmt.Errorf("execute: %w", err)
	}
	fmt.Fprintf(w, "execution status: %s\n", exec.Status)
	for _, l := range exec.Logs {
		fmt.Fprintf(w, "  block %-22s %-8s %v\n", l.Block, l.Status, l.Duration)
	}
	nf, _ := tb.Get("vce-001")
	fmt.Fprintf(w, "vce-001 now runs %s (reboots: %d)\n", nf.ActiveVersion(), nf.RebootCount())

	// Second upgrade, but this time the new image degrades packet
	// discards: the pre/post comparison fails and the workflow rolls back
	// automatically (the "no" branch of Fig. 4).
	fmt.Fprintln(w, "\n--- upgrade to a bad image (v3) ---")
	tb.MarkBadImage("v3", 4.0)
	execution, err := f.Execute(context.Background(), dep, map[string]string{
		"instance": "vce-001", "sw_version": "v3", "prior_version": "v2",
	})
	if err != nil {
		return fmt.Errorf("execute: %w", err)
	}
	fmt.Fprintf(w, "execution status: %s\n", execution.Status)
	for _, l := range execution.Logs {
		fmt.Fprintf(w, "  block %-22s %-8s\n", l.Block, l.Status)
	}
	fmt.Fprintf(w, "vce-001 rolled back to %s\n", nf.ActiveVersion())
	return nil
}
