// Reconcile: the declarative closed loop (DESIGN.md §12). Instead of
// submitting one-shot change requests, declare what a fleet should look
// like and let the reconciliation loop drive the network there —
// diffing the declaration against the inventory, planning the drifted
// elements, executing the generated workflows through the resilience
// layer, journaling every change, and retrying with backoff until the
// fleet converges.
//
// Three phases:
//  1. declare "every dfw vGW on v2 with mtu=9000" and watch it converge;
//  2. inject a total testbed fault, bump the declared version, and watch
//     the pass fail, requeue with backoff, then self-heal once the fault
//     clears — no operator action;
//  3. read the audit journal the loop wrote along the way.
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
	"cornet/internal/inventory"
	"cornet/internal/reconcile"
	"cornet/internal/testbed"
)

// syncTimeout bounds each wait for a fleet to reach a Synced status; the
// fault phase converges within a few backoff steps of 10 ms.
const syncTimeout = 30 * time.Second

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// A small vGW fleet split across two markets, mirrored into the
	// inventory the loop diffs against.
	tb := testbed.New(7)
	testbed.PopulateVNFs(tb, 4)
	markets := []string{"dfw", "nyc"}
	i := 0
	inv := testbed.MirrorInventory(tb, func(*testbed.NF) map[string]string {
		i++
		return map[string]string{inventory.AttrMarket: markets[i%2]}
	})
	f := core.New(map[string]catalog.ImplKind{"vGW": catalog.ImplVendorCLI, "vCE": catalog.ImplVendorCLI},
		core.WithInvoker(tb))

	m, err := reconcile.New(reconcile.Config{Framework: f, Inventory: inv, MaxParallel: 2})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m.Start(ctx)
	defer m.Stop()

	// --- Phase 1: declare and converge --------------------------------
	fmt.Fprintln(w, "--- phase 1: declare desired state, watch it converge ---")
	spec := reconcile.Spec{
		Name: "vgw-dfw", NFType: "vGW", Market: "dfw",
		SWVersion: "v2", Config: map[string]string{"mtu": "9000"},
	}
	if _, err := m.Store().Apply(spec); err != nil {
		return err
	}
	fleet, err := waitSynced(m.Store(), "vgw-dfw", reconcile.ConditionTrue)
	if err != nil {
		return err
	}
	printFleet(w, fleet)
	printVersions(w, tb)

	// --- Phase 2: fault, failed pass, self-healing retry --------------
	fmt.Fprintln(w, "\n--- phase 2: total fault defeats the bump; backoff retry heals it ---")
	if err := tb.SetFault(testbed.FaultTargetAll, testbed.FaultSpec{ErrorRate: 1}); err != nil {
		return err
	}
	spec.SWVersion = "v3"
	if _, err := m.Store().Apply(spec); err != nil {
		return err
	}
	if fleet, err = waitSynced(m.Store(), "vgw-dfw", reconcile.ConditionFalse); err != nil {
		return err
	}
	printFleet(w, fleet)
	fmt.Fprintf(w, "backoff requeues so far: %d\n", m.Requeues("vgw-dfw"))

	fmt.Fprintln(w, "fault cleared; the requeued pass converges on its own")
	tb.ClearFaults()
	if fleet, err = waitSynced(m.Store(), "vgw-dfw", reconcile.ConditionTrue); err != nil {
		return err
	}
	printFleet(w, fleet)
	printVersions(w, tb)

	// --- Phase 3: the audit journal -----------------------------------
	fmt.Fprintln(w, "\n--- phase 3: the revision journal ---")
	for _, r := range m.Journal().ByFleet("vgw-dfw") {
		detail := ""
		if r.Detail != "" {
			detail = " (" + r.Detail + ")"
		}
		fmt.Fprintf(w, "  rev %2d gen %d  %-8s %-22s %s: %q -> %q%s\n",
			r.Seq, r.Generation, r.Outcome, r.Type, r.Element, r.From, r.To, detail)
	}
	return nil
}

// waitSynced polls until the fleet's Synced condition has the wanted
// status and its observed generation is current, or fails after
// syncTimeout.
func waitSynced(s *reconcile.Store, name string, want reconcile.ConditionStatus) (reconcile.Fleet, error) {
	deadline := time.Now().Add(syncTimeout)
	for {
		f, ok := s.Get(name)
		if ok && f.Status.ObservedGeneration == f.Generation &&
			reconcile.ConditionIs(f.Status.Conditions, reconcile.ConditionSynced, want) {
			return f, nil
		}
		if time.Now().After(deadline) {
			return f, fmt.Errorf("fleet %s not Synced=%s after %s: %+v", name, want, syncTimeout, f.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func printFleet(w io.Writer, f reconcile.Fleet) {
	fmt.Fprintf(w, "fleet %s gen %d (observed %d): applied %d, failed %d\n",
		f.Spec.Name, f.Generation, f.Status.ObservedGeneration, f.Status.Applied, f.Status.Failed)
	for _, c := range f.Status.Conditions {
		fmt.Fprintf(w, "  condition %-6s %-7s %-16s %s\n", c.Type, c.Status, c.Reason, c.Message)
	}
}

func printVersions(w io.Writer, tb *testbed.Testbed) {
	for _, nf := range tb.All() {
		if nf.Type == "vGW" {
			fmt.Fprintf(w, "  %s runs %s (mtu=%s)\n", nf.ID, nf.ActiveVersion(), nf.Config("mtu"))
		}
	}
}
