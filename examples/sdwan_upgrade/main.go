// SDWAN software upgrade (Section 5.1): virtual gateway and portal
// functions upgraded with a single three-block workflow (pre-check,
// upgrade-with-reboot, post-check), with scheduling constraints ensuring
// that connected gateway and portal upgrades land close in time (software
// compatibility — the consistency constraint) and that conflicting changes
// on the hosting physical servers are avoided (conflict scope across
// cross-layer edges).
//
// The run also demonstrates the §5.1 operational lesson: a vGW whose
// management plane is unreachable (SSH connectivity) fails its block, is
// surfaced in the fine-grained execution logs, and needs out-of-band
// handling.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"sort"

	"cornet/internal/catalog"
	"cornet/internal/core"
	"cornet/internal/inventory"
	"cornet/internal/netgen"
	"cornet/internal/orchestrator"
	"cornet/internal/plan/solver"
	"cornet/internal/testbed"
	"cornet/internal/workflow"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	net, err := netgen.SDWAN(netgen.SDWANConfig{Seed: 13, CloudZones: 3, GatewaysPerZone: 6, CPEs: 36})
	if err != nil {
		return err
	}
	vgws := net.Inv.ByAttr(inventory.AttrNFType, "vGW")
	portals := net.Inv.ByAttr(inventory.AttrNFType, "portal")
	fmt.Fprintf(w, "SDWAN: %d elements, %d vGWs, %d portals, %d service chains\n",
		net.Inv.Len(), len(vgws), len(portals), len(net.Topo.Chains()))

	tb := testbed.New(13)
	targets := append(append([]string{}, vgws...), portals...)
	for _, id := range targets {
		e, _ := net.Inv.Get(id)
		nfType, _ := e.Attr(inventory.AttrNFType)
		tb.MustAdd(testbed.NewNF(id, nfType, "sdwan-2.4"))
	}
	// One gateway has lost management connectivity (the §5.1 fall-out).
	broken := vgws[2]
	nf, _ := tb.Get(broken)
	nf.SetReachable(false)

	f := core.New(map[string]catalog.ImplKind{
		"vGW": catalog.ImplAnsible, "portal": catalog.ImplAnsible,
	}, core.WithInvoker(tb),
		core.WithSolverOptions(solver.Options{FirstSolutionOnly: true}))

	// --- Plan: consistency groups gateway+portal per zone; the hosting
	// servers are frozen for other work on night 1.
	intentDoc := `{
	  "scheduling_window": {"start": "2021-06-01 00:00:00", "end": "2021-06-06 00:00:00",
	    "granularity": {"metric":"day","value":1}},
	  "schedulable_attribute": "common_id",
	  "constraints": [
	    {"name": "concurrency", "base_attribute": "common_id", "default_capacity": 8},
	    {"name": "consistency", "attribute": "market"}
	  ]
	}`
	sub := net.Inv.Subset(targets)
	plan, err := f.PlanScheduleContext(context.Background(), []byte(intentDoc), sub, core.PlanOptions{
		Topology: net.Topo, RequireAll: true,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "plan: method=%s makespan=%d conflicts=%d\n", plan.Method, plan.Makespan, plan.Conflicts)

	// Consistency check: each zone's functions share one window.
	byZone := map[string][]int{}
	for id, slot := range plan.Assignment {
		e, _ := net.Inv.Get(id)
		zone, _ := e.Attr(inventory.AttrMarket)
		byZone[zone] = append(byZone[zone], slot)
	}
	zones := make([]string, 0, len(byZone))
	for z := range byZone {
		zones = append(zones, z)
	}
	sort.Strings(zones)
	for _, z := range zones {
		slots := byZone[z]
		same := true
		for _, s := range slots {
			if s != slots[0] {
				same = false
			}
		}
		fmt.Fprintf(w, "  %s: %d functions on window %d (consistent=%v)\n", z, len(slots), slots[0], same)
	}

	// --- Execute the single upgrade workflow per the plan. ---------------
	var changes []orchestrator.ScheduledChange
	for id, slot := range plan.Assignment {
		changes = append(changes, orchestrator.ScheduledChange{
			Instance: id, Timeslot: slot,
			Inputs: map[string]string{"sw_version": "sdwan-2.5", "prior_version": "sdwan-2.4"},
		})
	}
	// Deployments resolve per NF type.
	deps := map[string]*workflow.Deployment{}
	for _, nfType := range []string{"vGW", "portal"} {
		d, err := f.DeployWorkflow(workflow.SoftwareUpgrade(), nfType)
		if err != nil {
			return err
		}
		deps[nfType] = d
	}
	dispatcher := orchestrator.NewDispatcher(f.Engine, 4)
	results := dispatcher.Run(context.Background(), func(c orchestrator.ScheduledChange) (*workflow.Deployment, error) {
		e, _ := net.Inv.Get(c.Instance)
		nfType, _ := e.Attr(inventory.AttrNFType)
		return deps[nfType], nil
	}, changes)

	okCount, failed := 0, []string{}
	for _, r := range results {
		if r.Err == nil && r.Exec != nil && len(r.Exec.FailedBlocks()) == 0 {
			okCount++
			continue
		}
		failed = append(failed, r.Instance)
		if r.Exec != nil {
			for _, b := range r.Exec.FailedBlocks() {
				for _, l := range r.Exec.Logs {
					if l.NodeID == b {
						fmt.Fprintf(w, "  fall-out: %s block %s: %s\n", r.Instance, l.Block, l.Err)
					}
				}
			}
		}
	}
	fmt.Fprintf(w, "upgrades: %d clean, %d with fall-outs %v\n", okCount, len(failed), failed)

	// Manual (out-of-band) repair, then retry just the failed instance.
	if len(failed) == 1 && failed[0] == broken {
		fmt.Fprintln(w, "restoring out-of-band access and retrying...")
		nf.SetReachable(true)
		exec, err := f.Execute(context.Background(), deps["vGW"], map[string]string{
			"instance": broken, "sw_version": "sdwan-2.5", "prior_version": "sdwan-2.4",
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "retry status: %s, %s now runs %s\n", exec.Status, broken, nf.ActiveVersion())
	}

	// Work-time model of §5.1: 30 min manual vs ~4 min automated per
	// instance.
	manual := 30.0 * float64(len(targets))
	auto := 4.0 * float64(len(targets))
	fmt.Fprintf(w, "work time: manual %.0f min -> automated %.0f min (%.0f%% reduction)\n",
		manual, auto, 100*(1-auto/manual))
	return nil
}
