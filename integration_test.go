package main

// End-to-end integration: the complete CORNET loop of the paper — generate
// a network, plan a software upgrade under composition constraints,
// dispatch the change workflows against the simulated testbed in scheduled
// waves, and monitor the staggered roll-out's impact with study/control
// verification, ending in a selective-halt recommendation.

import (
	"context"
	"testing"

	"cornet/internal/catalog"
	"cornet/internal/core"
	"cornet/internal/inventory"
	"cornet/internal/kpigen"
	"cornet/internal/netgen"
	"cornet/internal/orchestrator"
	"cornet/internal/plan/solver"
	"cornet/internal/testbed"
	"cornet/internal/verify/groups"
	"cornet/internal/verify/kpi"
	"cornet/internal/verify/verifier"
	"cornet/internal/workflow"
)

func TestEndToEndChangeManagement(t *testing.T) {
	// --- Network and framework. ------------------------------------------
	net, err := netgen.Cellular(netgen.CellularConfig{
		Seed: 99, Markets: 2, TACsPerMarket: 3, USIDsPerTAC: 8,
		GNodeBFraction: 1, EMSCount: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	enbs := net.Inv.ByAttr(inventory.AttrNFType, "eNodeB")
	gnbs := net.Inv.ByAttr(inventory.AttrNFType, "gNodeB")
	bases := append(append([]string{}, enbs...), gnbs...)

	tb := testbed.New(99)
	for _, id := range bases {
		e, _ := net.Inv.Get(id)
		nfType, _ := e.Attr(inventory.AttrNFType)
		tb.MustAdd(testbed.NewNF(id, nfType, "sw-old"))
	}
	f := core.New(map[string]catalog.ImplKind{
		"eNodeB": catalog.ImplVendorCLI, "gNodeB": catalog.ImplVendorCLI,
	}, core.WithInvoker(tb),
		core.WithSolverOptions(solver.Options{FirstSolutionOnly: true}))

	// --- Plan: consistency on USID, capped concurrency. -------------------
	intentDoc := `{
	  "scheduling_window": {"start": "2022-05-01 00:00:00", "end": "2022-05-15 00:00:00",
	    "granularity": {"metric":"day","value":1}},
	  "schedulable_attribute": "common_id",
	  "constraints": [
	    {"name": "concurrency", "base_attribute": "common_id", "default_capacity": 10},
	    {"name": "consistency", "attribute": "usid"}
	  ]
	}`
	sub := net.Inv.Subset(bases)
	plan, err := f.PlanScheduleContext(context.Background(), []byte(intentDoc), sub, core.PlanOptions{
		Topology: net.Topo, RequireAll: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Method != "solver" || len(plan.Leftovers) != 0 {
		t.Fatalf("plan: method=%s leftovers=%d", plan.Method, len(plan.Leftovers))
	}

	// The proposed plan also passes the manual-schedule checker.
	req, _ := core.ParseIntent([]byte(intentDoc))
	problems, err := f.CheckScheduleContext(context.Background(), req, sub, plan.Assignment, core.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 0 {
		t.Fatalf("planner output fails its own constraints: %v", problems)
	}

	// --- Execute: dispatch the Fig. 4 workflow per wave. ------------------
	deps := map[string]*workflow.Deployment{}
	for _, nfType := range []string{"eNodeB", "gNodeB"} {
		d, err := f.DeployWorkflow(workflow.SoftwareUpgrade(), nfType)
		if err != nil {
			t.Fatal(err)
		}
		deps[nfType] = d
	}
	var changes []orchestrator.ScheduledChange
	for id, slot := range plan.Assignment {
		changes = append(changes, orchestrator.ScheduledChange{
			Instance: id, Timeslot: slot,
			Inputs: map[string]string{"sw_version": "sw-new", "prior_version": "sw-old"},
		})
	}
	dispatcher := orchestrator.NewDispatcher(f.Engine, 6)
	results := dispatcher.Run(context.Background(),
		func(c orchestrator.ScheduledChange) (*workflow.Deployment, error) {
			e, _ := net.Inv.Get(c.Instance)
			nfType, _ := e.Attr(inventory.AttrNFType)
			return deps[nfType], nil
		}, changes)
	if len(results) != len(bases) {
		t.Fatalf("dispatched %d of %d", len(results), len(bases))
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Instance, r.Err)
		}
		nf, _ := tb.Get(r.Instance)
		if nf.ActiveVersion() != "sw-new" {
			t.Fatalf("%s still runs %s", r.Instance, nf.ActiveVersion())
		}
	}

	// --- Verify: staggered roll-out monitoring with injected selective
	// degradation on one hardware version's wave-1 instances. -------------
	if _, err := f.Registry.Define("accessibility", kpi.Scorecard,
		"100 * rrc_success / rrc_attempts", true, 0); err != nil {
		t.Fatal(err)
	}
	rplan := verifier.RolloutPlan{Waves: map[int][]string{}, ChangeAt: map[string]int{}}
	spd := 24
	for id, slot := range plan.Assignment {
		wave := slot
		if wave > 2 {
			wave = 2 // compress into 3 monitored waves
		}
		rplan.Waves[wave] = append(rplan.Waves[wave], id)
		rplan.ChangeAt[id] = (6 + wave) * spd
	}
	study0 := rplan.Waves[0]
	control, err := f.ControlGroup(net.Topo, net.Inv, study0, groups.SecondMinusFirst,
		groups.Options{MaxSize: 40})
	if err != nil {
		t.Fatal(err)
	}

	var impacts []kpigen.Impact
	badHW := ""
	for _, ids := range rplan.Waves {
		for _, id := range ids {
			e, _ := net.Inv.Get(id)
			hw, _ := e.Attr(inventory.AttrHWVersion)
			if badHW == "" {
				badHW = hw
			}
			if hw == badHW {
				impacts = append(impacts, kpigen.Impact{
					Instance: id, Counter: "rrc_success",
					At: rplan.ChangeAt[id], Factor: 0.7,
				})
			}
		}
	}
	all := append(append([]string{}, bases...), control...)
	ds, err := kpigen.Generate(all, kpigen.Config{
		Seed: 100, Days: 14, SamplesPerDay: spd,
		Counters: []kpigen.CounterSpec{
			{Name: "rrc_success", Base: 4900, DailyAmplitude: 0.4, Noise: 0.05},
			{Name: "rrc_attempts", Base: 5000, DailyAmplitude: 0.4, Noise: 0.05},
		},
	}, impacts)
	if err != nil {
		t.Fatal(err)
	}
	v := &verifier.Verifier{Registry: f.Registry, Data: ds, Inv: net.Inv}
	decisions, err := v.MonitorRollout(context.Background(), verifier.Rule{
		Name: "sw-new-rollout", KPIs: []string{"accessibility"},
		Attributes: []string{inventory.AttrHWVersion},
		Timescales: []int{48, 96}, PreWindow: 96,
		Alpha: 0.001, MinShift: 0.02,
	}, rplan, control)
	if err != nil {
		t.Fatal(err)
	}
	if len(decisions) == 0 {
		t.Fatal("no monitoring decisions")
	}
	// The degradation must be caught, and — because only one hardware
	// version is affected while others stay clean — with a selective-halt
	// recommendation naming it.
	caught := false
	for _, d := range decisions {
		if d.Go {
			continue
		}
		caught = true
		bad := d.HaltAttrValues[inventory.AttrHWVersion]
		if len(bad) == 0 {
			t.Fatalf("wave %d: full halt where selective was possible: %s",
				d.Window, d.Report.Summary())
		}
		found := false
		for _, b := range bad {
			if b == badHW {
				found = true
			}
		}
		if !found {
			t.Fatalf("wave %d: halt values %v miss %s", d.Window, bad, badHW)
		}
	}
	if !caught {
		t.Fatalf("injected degradation never caught across %d waves", len(decisions))
	}
}
