package core

import (
	"context"
	"fmt"
	"testing"

	"cornet/internal/catalog"
	"cornet/internal/kpigen"
	"cornet/internal/netgen"
	"cornet/internal/orchestrator"
	"cornet/internal/plan/engine"
	"cornet/internal/plan/heuristic"
	"cornet/internal/plan/intent"
	"cornet/internal/plan/solver"
	"cornet/internal/testbed"
	"cornet/internal/verify/groups"
	"cornet/internal/verify/kpi"
	"cornet/internal/verify/verifier"
	"cornet/internal/workflow"
)

func framework(tb *testbed.Testbed) *Framework {
	return New(map[string]catalog.ImplKind{
		"vCE": catalog.ImplScript, "vGW": catalog.ImplAnsible,
		"eNodeB": catalog.ImplVendorCLI, "gNodeB": catalog.ImplVendorCLI,
	}, WithInvoker(tb))
}

func TestDeployAndExecute(t *testing.T) {
	tb := testbed.New(1)
	tb.MustAdd(testbed.NewNF("vce-1", "vCE", "v1"))
	f := framework(tb)

	dep, err := f.DeployWorkflow(workflow.SoftwareUpgrade(), "vCE")
	if err != nil {
		t.Fatal(err)
	}
	exec, err := f.Execute(context.Background(), dep, map[string]string{
		"instance": "vce-1", "sw_version": "v2", "prior_version": "v1",
	})
	if err != nil || exec.Status != orchestrator.StatusSuccess {
		t.Fatalf("execute: %v %v", exec.Status, err)
	}
	nf, _ := tb.Get("vce-1")
	if nf.ActiveVersion() != "v2" {
		t.Fatalf("version = %s", nf.ActiveVersion())
	}
}

func TestDeployRejectsBrokenWorkflow(t *testing.T) {
	f := framework(testbed.New(1))
	w := workflow.New("broken")
	w.AddNode(workflow.Node{ID: "start", Kind: workflow.Start})
	if _, err := f.DeployWorkflow(w, "vCE"); err == nil {
		t.Fatal("broken workflow deployed")
	}
	// Unknown NF type.
	if _, err := f.DeployWorkflow(workflow.SoftwareUpgrade(), "mystery"); err == nil {
		t.Fatal("unknown NF type deployed")
	}
}

func TestExecuteWithoutInvoker(t *testing.T) {
	f := New(map[string]catalog.ImplKind{"vCE": catalog.ImplScript})
	if _, err := f.Execute(context.Background(), &workflow.Deployment{}, nil); err == nil {
		t.Fatal("execute without invoker accepted")
	}
}

func TestDispatch(t *testing.T) {
	tb := testbed.New(1)
	ids := testbed.PopulateVNFs(tb, 3)
	f := framework(tb)
	dep, err := f.DeployWorkflow(workflow.DownloadInstall(), "vCE")
	if err != nil {
		t.Fatal(err)
	}
	var changes []orchestrator.ScheduledChange
	for i, id := range ids[:3] { // the three vCE instances
		changes = append(changes, orchestrator.ScheduledChange{
			Instance: id, Timeslot: i % 2,
			Inputs: map[string]string{"sw_version": "v9"},
		})
	}
	results, err := f.Dispatch(context.Background(), dep, changes, 2)
	if err != nil || len(results) != 3 {
		t.Fatalf("dispatch: %d %v", len(results), err)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Instance, r.Err)
		}
	}
}

func planIntent(cap int) []byte {
	return []byte(fmt.Sprintf(`{
	  "scheduling_window": {"start": "2020-07-01 00:00:00", "end": "2020-07-15 00:00:00",
	    "granularity": {"metric":"day","value":1}},
	  "schedulable_attribute": "common_id",
	  "constraints": [
	    {"name": "concurrency", "base_attribute": "common_id", "default_capacity": %d},
	    {"name": "consistency", "attribute": "usid"}
	  ]
	}`, cap))
}

func TestPlanScheduleSolverPath(t *testing.T) {
	net, err := netgen.Cellular(netgen.CellularConfig{
		Seed: 1, Markets: 1, TACsPerMarket: 2, USIDsPerTAC: 5,
		GNodeBFraction: 1, EMSCount: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	f := framework(testbed.New(1))
	f.SolverOptions = solver.Options{FirstSolutionOnly: true}
	// Inventory includes switches; restrict to base stations.
	enbs := net.Inv.ByAttr("nf_type", "eNodeB")
	gnbs := net.Inv.ByAttr("nf_type", "gNodeB")
	sub := net.Inv.Subset(append(enbs, gnbs...))
	res, err := f.PlanScheduleContext(context.Background(), planIntent(6), sub, PlanOptions{RequireAll: true, RenderModel: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != "solver" {
		t.Fatalf("method = %s", res.Method)
	}
	if len(res.Assignment) != sub.Len() || len(res.Leftovers) != 0 {
		t.Fatalf("assignment = %d leftovers = %d", len(res.Assignment), len(res.Leftovers))
	}
	if res.ModelText == "" {
		t.Fatal("model text missing")
	}
	// Consistency: co-USID pairs share slots.
	for _, enb := range enbs {
		e, _ := sub.Get(enb)
		usid, _ := e.Attr("usid")
		peers := sub.ByAttr("usid", usid)
		for _, p := range peers {
			if res.Assignment[p] != res.Assignment[enb] {
				t.Fatalf("usid %s split", usid)
			}
		}
	}
}

func TestPlanScheduleHeuristicPathAtScale(t *testing.T) {
	net, err := netgen.Cellular(netgen.CellularConfig{
		Seed: 2, Markets: 2, TACsPerMarket: 5, USIDsPerTAC: 30,
		GNodeBFraction: 1, EMSCount: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	enbs := net.Inv.ByAttr("nf_type", "eNodeB")
	gnbs := net.Inv.ByAttr("nf_type", "gNodeB")
	sub := net.Inv.Subset(append(enbs, gnbs...)) // 600 nodes
	f := framework(testbed.New(1))
	f.ScaleThreshold = 100 // force the heuristic switch
	res, err := f.PlanScheduleContext(context.Background(), planIntent(100), sub, PlanOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != "heuristic" {
		t.Fatalf("method = %s", res.Method)
	}
	if len(res.Assignment)+len(res.Leftovers) != sub.Len() {
		t.Fatalf("partition broken: %d + %d != %d",
			len(res.Assignment), len(res.Leftovers), sub.Len())
	}
	if res.Makespan <= 0 {
		t.Fatalf("makespan = %d", res.Makespan)
	}
}

func TestPlanScheduleBadIntent(t *testing.T) {
	f := framework(testbed.New(1))
	net, _ := netgen.Cellular(netgen.CellularConfig{Seed: 1, Markets: 1, TACsPerMarket: 1, USIDsPerTAC: 2})
	if _, err := f.PlanScheduleContext(context.Background(), []byte("{"), net.Inv, PlanOptions{}); err == nil {
		t.Fatal("bad JSON accepted")
	}
}

func TestControlGroupAndVerify(t *testing.T) {
	net, err := netgen.Cellular(netgen.CellularConfig{
		Seed: 3, Markets: 1, TACsPerMarket: 1, USIDsPerTAC: 8, GNodeBFraction: 0, EMSCount: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	f := framework(testbed.New(1))
	enbs := net.Inv.ByAttr("nf_type", "eNodeB")
	study := enbs[:3]
	control, err := f.ControlGroup(net.Topo, net.Inv, study, groups.SecondMinusFirst, groups.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(control) == 0 {
		t.Fatal("empty control")
	}

	// Verify a clean change end to end.
	if _, err := f.Registry.Define("tput", kpi.Scorecard, "num / den", true, 0); err != nil {
		t.Fatal(err)
	}
	all := append(append([]string{}, study...), control...)
	ds, err := kpigen.Generate(all, kpigen.Config{
		Seed: 5, Days: 16, SamplesPerDay: 24,
		Counters: []kpigen.CounterSpec{
			{Name: "num", Base: 1000, DailyAmplitude: 0.3, Noise: 0.05},
			{Name: "den", Base: 100, DailyAmplitude: 0.3, Noise: 0.05},
		},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	changeAt := map[string]int{}
	for _, id := range study {
		changeAt[id] = 8 * 24
	}
	rep, err := f.VerifyImpactContext(context.Background(), ds, net.Inv, verifier.Rule{
		Name: "r", KPIs: []string{"tput"},
		Timescales: []int{48}, PreWindow: 96,
	}, study, changeAt, control)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Go {
		t.Fatalf("clean change flagged: %s", rep.Summary())
	}
}

func TestPlanScheduleContextCancelled(t *testing.T) {
	net, err := netgen.Cellular(netgen.CellularConfig{
		Seed: 1, Markets: 1, TACsPerMarket: 2, USIDsPerTAC: 5,
		GNodeBFraction: 1, EMSCount: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	f := framework(testbed.New(1))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := f.PlanScheduleContext(ctx, planIntent(6), net.Inv, PlanOptions{}); err == nil {
		t.Fatal("cancelled planning succeeded")
	}
	if _, err := f.CheckScheduleContext(ctx, mustParseIntent(t, planIntent(6)), net.Inv, nil, PlanOptions{}); err == nil {
		t.Fatal("cancelled check succeeded")
	}
}

func mustParseIntent(t *testing.T, doc []byte) *intent.Request {
	t.Helper()
	req, err := intent.Parse(doc)
	if err != nil {
		t.Fatal(err)
	}
	return req
}

// TestBuildPlanRequestCarriesOneRepresentation checks the planner decides
// once: ResolvePolicy's choice is the one representation BuildPlanRequest
// builds and the one backend RunPlan runs.
func TestBuildPlanRequestCarriesOneRepresentation(t *testing.T) {
	net, err := netgen.Cellular(netgen.CellularConfig{
		Seed: 4, Markets: 1, TACsPerMarket: 2, USIDsPerTAC: 5,
		GNodeBFraction: 1, EMSCount: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	enbs := net.Inv.ByAttr("nf_type", "eNodeB")
	gnbs := net.Inv.ByAttr("nf_type", "gNodeB")
	sub := net.Inv.Subset(append(enbs, gnbs...))
	req := mustParseIntent(t, planIntent(6))
	for _, tc := range []struct {
		name      string
		policy    engine.Policy
		threshold int
		want      string
	}{
		{"auto below threshold", engine.Threshold, sub.Len(), "solver"},
		{"auto above threshold", engine.Threshold, sub.Len() - 1, "heuristic"},
		{"solver", engine.ForceSolver, sub.Len() - 1, "solver"},
		{"heuristic", engine.ForceHeuristic, sub.Len(), "heuristic"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := framework(testbed.New(1))
			f.ScaleThreshold = tc.threshold
			opt := PlanOptions{Policy: tc.policy, Seed: 7}
			b, err := f.BuildPlanRequest(context.Background(), req, sub, opt)
			if err != nil {
				t.Fatal(err)
			}
			if got := string(b.Policy); got != tc.want {
				t.Fatalf("resolved policy = %q, want %q", got, tc.want)
			}
			if (b.Req.Model != nil) == (b.Req.Instance != nil) {
				t.Fatalf("model set %t, instance set %t: want exactly one", b.Req.Model != nil, b.Req.Instance != nil)
			}
			if (b.Req.Model != nil) != (tc.want == "solver") {
				t.Fatalf("%s request built the wrong representation", tc.want)
			}
			res, err := f.RunPlan(context.Background(), b, opt)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Stats) != 1 || !res.Stats[0].Winner || res.Stats[0].Backend != tc.want || res.Method != tc.want {
				t.Fatalf("method %q, stats = %+v: want one winning %s entry", res.Method, res.Stats, tc.want)
			}
			if tc.want == "heuristic" && res.Stats[0].Restarts != heuristic.DefaultRestarts {
				t.Fatalf("restarts = %d, want %d", res.Stats[0].Restarts, heuristic.DefaultRestarts)
			}
			if len(res.Assignment)+len(res.Leftovers) != sub.Len() {
				t.Fatalf("partition broken: %d + %d != %d", len(res.Assignment), len(res.Leftovers), sub.Len())
			}
		})
	}
}

func TestPlanScheduleStatsOnDefaultPath(t *testing.T) {
	net, err := netgen.Cellular(netgen.CellularConfig{
		Seed: 1, Markets: 1, TACsPerMarket: 2, USIDsPerTAC: 5,
		GNodeBFraction: 1, EMSCount: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	f := framework(testbed.New(1))
	f.SolverOptions = solver.Options{FirstSolutionOnly: true}
	res, err := f.PlanScheduleContext(context.Background(), planIntent(6), net.Inv, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats) != 1 || !res.Stats[0].Winner || res.Stats[0].Backend != res.Method {
		t.Fatalf("stats = %+v, want single winning entry matching method %q", res.Stats, res.Method)
	}
	if res.Stats[0].Wall <= 0 {
		t.Fatalf("stats wall time missing: %+v", res.Stats[0])
	}
	// Above the threshold the same intent plans heuristically, with the
	// default restart budget.
	f.ScaleThreshold = net.Inv.Len() - 1
	res, err = f.PlanScheduleContext(context.Background(), planIntent(6), net.Inv, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != "heuristic" || len(res.Stats) != 1 || !res.Stats[0].Winner || res.Stats[0].Restarts != heuristic.DefaultRestarts {
		t.Fatalf("method %s, stats = %+v: want one winning heuristic entry with %d restarts", res.Method, res.Stats, heuristic.DefaultRestarts)
	}
}
