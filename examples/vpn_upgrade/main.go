// VPN software upgrade (Section 5.1): the two-workflow pattern used for
// ~1,000 virtual customer-edge routers.
//
// Workflow 1 downloads and installs the image (not service disruptive) and
// runs across the whole fleet first. Workflow 2 — health check, activate
// with reboot, post checks — runs days later, planned by the schedule
// planner so that no vCE activates concurrently with a change on the
// physical server hosting it (the cross-layer conflict of Section 2.2).
// Finally the impact verifier checks CPU, memory, and packet-discard
// metrics: the paper observed an expected reduction in discard rates and a
// slight memory increase from the larger image.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"

	"cornet/internal/catalog"
	"cornet/internal/core"
	"cornet/internal/inventory"
	"cornet/internal/kpigen"
	"cornet/internal/netgen"
	"cornet/internal/orchestrator"
	"cornet/internal/plan/solver"
	"cornet/internal/testbed"
	"cornet/internal/verify/kpi"
	"cornet/internal/verify/verifier"
	"cornet/internal/workflow"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// --- Substrate: a VPN network with 60 sites, half virtualized. ------
	net, err := netgen.VPN(netgen.VPNConfig{Seed: 7, Sites: 60, VirtualFraction: 0.5})
	if err != nil {
		return err
	}
	vces := net.Inv.ByAttr(inventory.AttrNFType, "vCE")
	fmt.Fprintf(w, "network: %d elements, %d vCE routers\n", net.Inv.Len(), len(vces))

	tb := testbed.New(7)
	for _, id := range vces {
		tb.MustAdd(testbed.NewNF(id, "vCE", "ce-16.3"))
	}
	f := core.New(map[string]catalog.ImplKind{"vCE": catalog.ImplScript},
		core.WithInvoker(tb),
		core.WithSolverOptions(solver.Options{FirstSolutionOnly: true}))

	// --- Workflow 1: download + install across the whole fleet. ---------
	dl, err := f.DeployWorkflow(workflow.DownloadInstall(), "vCE")
	if err != nil {
		return err
	}
	var installs []orchestrator.ScheduledChange
	for _, id := range vces {
		installs = append(installs, orchestrator.ScheduledChange{
			Instance: id, Timeslot: 0,
			Inputs: map[string]string{"sw_version": "ce-16.4"},
		})
	}
	results, err := f.Dispatch(context.Background(), dl, installs, 16)
	if err != nil {
		return err
	}
	ok := 0
	for _, r := range results {
		if r.Err == nil && r.Exec.Status == orchestrator.StatusSuccess {
			ok++
		}
	}
	fmt.Fprintf(w, "workflow 1 (download-install): %d/%d succeeded\n", ok, len(results))

	// --- Plan workflow 2 avoiding cross-layer server conflicts. ---------
	// The underlying servers have their own maintenance on night 1; the
	// planner must keep hosted vCE activations away from it.
	intentDoc := `{
	  "scheduling_window": {"start": "2021-03-01 00:00:00", "end": "2021-03-05 00:00:00",
	    "granularity": {"metric":"day","value":1}},
	  "schedulable_attribute": "common_id",
	  "conflict_table": {` + serverConflicts(net) + `},
	  "constraints": [
	    {"name": "concurrency", "base_attribute": "common_id", "default_capacity": 12}
	  ]
	}`
	sub := net.Inv.Subset(vces)
	plan, err := f.PlanScheduleContext(context.Background(), []byte(intentDoc), sub, core.PlanOptions{
		Topology: net.Topo, RequireAll: true,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "workflow 2 plan: method=%s makespan=%d windows, conflicts=%d, discovery=%v\n",
		plan.Method, plan.Makespan, plan.Conflicts, plan.Discovery.Round(1000))

	// --- Execute workflow 2 per the plan. --------------------------------
	av, err := f.DeployWorkflow(workflow.ActivateVerify(), "vCE")
	if err != nil {
		return err
	}
	var activations []orchestrator.ScheduledChange
	for id, slot := range plan.Assignment {
		activations = append(activations, orchestrator.ScheduledChange{
			Instance: id, Timeslot: slot,
			Inputs: map[string]string{"config": "active_slot=ce-16.4"},
		})
	}
	results, err = f.Dispatch(context.Background(), av, activations, 8)
	if err != nil {
		return err
	}
	ok = 0
	for _, r := range results {
		if r.Err == nil && r.Exec.Status == orchestrator.StatusSuccess {
			ok++
		}
	}
	fmt.Fprintf(w, "workflow 2 (activate-verify): %d/%d succeeded\n", ok, len(results))

	// --- Impact verification over router metrics. ------------------------
	// Synthetic series mirror the §5.1 findings: discards improve 40%,
	// memory grows 6%.
	mustDefine(f, "pkt-discard-rate", kpi.Scorecard, "100 * discards / packets", false)
	mustDefine(f, "cpu-util", kpi.Scorecard, "cpu", false)
	mustDefine(f, "mem-util", kpi.Scorecard, "mem", false)

	study := vces[:len(vces)/2]
	control := vces[len(vces)/2:]
	changeSample := 7 * 24
	var impacts []kpigen.Impact
	changeAt := map[string]int{}
	for _, id := range study {
		changeAt[id] = changeSample
		impacts = append(impacts,
			kpigen.Impact{Instance: id, Counter: "discards", At: changeSample, Factor: 0.6},
			kpigen.Impact{Instance: id, Counter: "mem", At: changeSample, Factor: 1.06},
		)
	}
	ds, err := kpigen.Generate(vces, kpigen.Config{
		Seed: 11, Days: 14, SamplesPerDay: 24,
		Counters: []kpigen.CounterSpec{
			{Name: "discards", Base: 30, DailyAmplitude: 0.2, Noise: 0.15},
			{Name: "packets", Base: 90000, DailyAmplitude: 0.4, Noise: 0.05},
			{Name: "cpu", Base: 45, DailyAmplitude: 0.3, Noise: 0.06},
			{Name: "mem", Base: 60, DailyAmplitude: 0.05, Noise: 0.02},
		},
	}, impacts)
	if err != nil {
		return err
	}
	rep, err := f.VerifyImpactContext(context.Background(), ds, net.Inv, verifier.Rule{
		Name: "vce-16.4-upgrade",
		KPIs: []string{"pkt-discard-rate", "cpu-util", "mem-util"},
		Expect: map[string]verifier.Verdict{
			"pkt-discard-rate": verifier.Improvement, // expected reduction
			"cpu-util":         verifier.NoImpact,
			"mem-util":         verifier.Degradation, // larger image
		},
		Timescales: []int{24, 72},
		PreWindow:  96,
	}, study, changeAt, control)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "\nimpact verification:")
	fmt.Fprint(w, rep.Summary())
	return nil
}

// serverConflicts renders conflict-table entries: every vCE's hosting
// server is under maintenance March 1-2, so the vCE itself conflicts then.
func serverConflicts(net *netgen.Network) string {
	out := ""
	first := true
	for _, id := range net.Inv.ByAttr(inventory.AttrNFType, "vCE") {
		if !first {
			out += ","
		}
		first = false
		out += fmt.Sprintf(`%q: [{"start": "2021-03-01 00:00:00", "end": "2021-03-02 00:00:00", "tickets": ["SRV-MAINT"]}]`, id)
	}
	return out
}

func mustDefine(f *core.Framework, name string, g kpi.Group, eq string, higher bool) {
	if _, err := f.Registry.Define(name, g, eq, higher, 0); err != nil {
		log.Fatal(err)
	}
}
