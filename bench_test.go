// Package-level benchmarks: one testing.B benchmark per paper table or
// figure (the printable reproductions live in cmd/cornet-bench), plus the
// ablation benches for the design choices called out in DESIGN.md §5.
package main

import (
	"context"
	"fmt"
	"testing"
	"time"

	"cornet/internal/baseline"
	"cornet/internal/catalog"
	"cornet/internal/changelog"
	"cornet/internal/core"
	"cornet/internal/inventory"
	"cornet/internal/kpigen"
	"cornet/internal/netgen"
	"cornet/internal/orchestrator"
	"cornet/internal/plan/heuristic"
	"cornet/internal/plan/intent"
	"cornet/internal/plan/model"
	"cornet/internal/plan/solver"
	"cornet/internal/plan/translate"
	"cornet/internal/testbed"
	"cornet/internal/verify/kpi"
	"cornet/internal/verify/verifier"
	"cornet/internal/workflow"
)

// --- T1: change log generation and Table 1 statistics ----------------------

func BenchmarkTable1ChangeLog(b *testing.B) {
	nodes := make([]string, 5000)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("n%05d", i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recs, err := changelog.Generate(changelog.GenConfig{
			Seed: int64(i), Nodes: nodes, Days: 30, WithCORNET: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		_ = changelog.Distribution(recs)
	}
}

// --- F1/F5: deployment curve simulation ------------------------------------

func BenchmarkFig5DeploymentCurves(b *testing.B) {
	sim := changelog.DeploymentSim{Seed: 1, Nodes: 60000, FFADays: 5, FFAFraction: 0.01,
		AssessDays: 4, Capacity: 3000}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sim.CORNETCurve()
		_ = sim.ManualCurve()
	}
}

// --- E41: orchestrator workflow execution ----------------------------------

func BenchmarkOrchestratorUpgrade(b *testing.B) {
	tb := testbed.New(1)
	tb.MustAdd(testbed.NewNF("vce-1", "vCE", "v0"))
	f := core.New(map[string]catalog.ImplKind{"vCE": catalog.ImplScript},
		core.WithInvoker(tb))
	dep, err := f.DeployWorkflow(workflow.SoftwareUpgrade(), "vCE")
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := f.Execute(ctx, dep, map[string]string{
			"instance": "vce-1", "sw_version": fmt.Sprintf("v%d", i+1),
			"prior_version": fmt.Sprintf("v%d", i),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDispatcher100Changes(b *testing.B) {
	tb := testbed.New(2)
	var changes []orchestrator.ScheduledChange
	for i := 0; i < 100; i++ {
		id := fmt.Sprintf("vce-%03d", i)
		tb.MustAdd(testbed.NewNF(id, "vCE", "v0"))
		changes = append(changes, orchestrator.ScheduledChange{
			Instance: id, Timeslot: i % 5,
			Inputs: map[string]string{"sw_version": "v1"},
		})
	}
	f := core.New(map[string]catalog.ImplKind{"vCE": catalog.ImplScript},
		core.WithInvoker(tb))
	dep, err := f.DeployWorkflow(workflow.DownloadInstall(), "vCE")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := f.Dispatch(context.Background(), dep, changes, 8)
		if err != nil || len(results) != 100 {
			b.Fatalf("dispatch: %d, %v", len(results), err)
		}
	}
}

// --- E42a: planner composition sweep ----------------------------------------

func plannerInventory(b *testing.B, n int) (*netgen.Network, *inventory.Inventory) {
	b.Helper()
	net, err := netgen.Cellular(netgen.CellularConfig{
		Seed: 10, Markets: 4, TACsPerMarket: 5, USIDsPerTAC: n / 30,
		GNodeBFraction: 0.5, EMSCount: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	enbs := net.Inv.ByAttr(inventory.AttrNFType, "eNodeB")
	if len(enbs) > n {
		enbs = enbs[:n]
	}
	return net, net.Inv.Subset(enbs)
}

func benchPlanner(b *testing.B, n int, constraints string) {
	net, sub := plannerInventory(b, n)
	doc := fmt.Sprintf(`{
	  "scheduling_window": {"start": "2021-01-01 00:00:00", "end": "2021-01-31 00:00:00",
	    "granularity": {"metric":"day","value":1}},
	  "schedulable_attribute": "common_id",
	  "constraints": [%s]
	}`, constraints)
	req, err := intent.Parse([]byte(doc))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := translate.Translate(req, sub, translate.Options{
			RequireAll: true, Topology: net.Topo,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := solver.SolveContext(context.Background(), tr.Model, solver.Options{
			TimeLimit: 5 * time.Second, MaxNodes: 300_000,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

const concurrencyOnly = `{"name": "concurrency", "base_attribute": "common_id",
  "aggregate_attribute": "ems", "default_capacity": 200}`

func BenchmarkPlannerBase400(b *testing.B) { benchPlanner(b, 400, concurrencyOnly) }

func BenchmarkPlannerUniformLocalize400(b *testing.B) {
	benchPlanner(b, 400, concurrencyOnly+
		`,{"name":"uniformity","attribute":"timezone","value":0}`+
		`,{"name":"localize","attribute":"market"}`)
}

func BenchmarkPlannerFullComposition400(b *testing.B) {
	benchPlanner(b, 400, concurrencyOnly+
		`,{"name":"consistency","attribute":"region"}`+
		`,{"name":"uniformity","attribute":"timezone","value":0}`+
		`,{"name":"localize","attribute":"market"}`)
}

func BenchmarkPlannerCompositions1000(b *testing.B) {
	benchPlanner(b, 1000, concurrencyOnly+
		`,{"name":"consistency","attribute":"region"}`+
		`,{"name":"uniformity","attribute":"timezone","value":0}`+
		`,{"name":"localize","attribute":"market"}`)
}

// --- E42b: scale comparison --------------------------------------------------

func BenchmarkPlannerScaleHeuristic10K(b *testing.B) {
	net, err := netgen.Cellular(netgen.CellularConfig{
		Seed: 11, Markets: 10, TACsPerMarket: 20, USIDsPerTAC: 25,
		GNodeBFraction: 1, EMSCount: 8,
	})
	if err != nil {
		b.Fatal(err)
	}
	bases := net.Inv.Filter(func(e *inventory.Element) bool {
		t, _ := e.Attr(inventory.AttrNFType)
		return t == "eNodeB" || t == "gNodeB"
	})
	sub := net.Inv.Subset(bases)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := heuristic.SolveContext(context.Background(), heuristic.Instance{
			Inv: sub, MaxTimeslots: 90, SlotCapacity: len(bases) / 37,
			EMSCapacity: len(bases) / 74, Restarts: 2, Seed: 12,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Slots) == 0 {
			b.Fatal("empty schedule")
		}
	}
}

func BenchmarkPlannerScaleSolver10K(b *testing.B) {
	net, err := netgen.Cellular(netgen.CellularConfig{
		Seed: 11, Markets: 10, TACsPerMarket: 20, USIDsPerTAC: 25,
		GNodeBFraction: 1, EMSCount: 8,
	})
	if err != nil {
		b.Fatal(err)
	}
	bases := net.Inv.Filter(func(e *inventory.Element) bool {
		t, _ := e.Attr(inventory.AttrNFType)
		return t == "eNodeB" || t == "gNodeB"
	})
	sub := net.Inv.Subset(bases)
	slotCap := len(bases) / 37
	doc := fmt.Sprintf(`{
	  "scheduling_window": {"start": "2021-01-01 00:00:00", "end": "2021-03-31 00:00:00",
	    "granularity": {"metric":"day","value":1}},
	  "schedulable_attribute": "common_id",
	  "constraints": [
	    {"name": "concurrency", "base_attribute": "common_id", "default_capacity": %d},
	    {"name": "concurrency", "base_attribute": "common_id",
	     "aggregate_attribute": "ems", "default_capacity": %d},
	    {"name": "consistency", "attribute": "tac"}
	  ]
	}`, slotCap, slotCap/2)
	req, err := intent.Parse([]byte(doc))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := translate.Translate(req, sub, translate.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := solver.SolveContext(context.Background(), tr.Model, solver.Options{
			FirstSolutionOnly: true,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E43/F10/F11: verifier ---------------------------------------------------

func verifierFixture(b *testing.B, nodes int) (*verifier.Verifier, []string, map[string]int, []string) {
	b.Helper()
	reg := kpi.NewRegistry()
	if err := kpi.SeedCatalog(reg, 0); err != nil {
		b.Fatal(err)
	}
	inv := inventory.New()
	var study, control []string
	for i := 0; i < nodes; i++ {
		id := fmt.Sprintf("s%05d", i)
		study = append(study, id)
		inv.MustAdd(&inventory.Element{ID: id, Attributes: map[string]string{
			inventory.AttrMarket:    fmt.Sprintf("m%d", i%8),
			inventory.AttrHWVersion: fmt.Sprintf("hw%d", i%4),
		}})
	}
	for i := 0; i < nodes/4+10; i++ {
		id := fmt.Sprintf("c%05d", i)
		control = append(control, id)
		inv.MustAdd(&inventory.Element{ID: id})
	}
	changeAt := map[string]int{}
	for _, id := range study {
		changeAt[id] = 5 * 24
	}
	ds, err := kpigen.Generate(append(append([]string{}, study...), control...),
		kpigen.Config{Seed: 7, Days: 10, SamplesPerDay: 24, Counters: kpi.CatalogCounterSpecs()},
		nil)
	if err != nil {
		b.Fatal(err)
	}
	return &verifier.Verifier{Registry: reg, Data: ds, Inv: inv, Workers: 8}, study, changeAt, control
}

func BenchmarkVerifierAccuracyScorecard(b *testing.B) {
	v, study, changeAt, control := verifierFixture(b, 100)
	rule := verifier.Rule{Name: "bench", Group: kpi.Scorecard,
		Timescales: []int{48, 96}, PreWindow: 96}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.VerifyContext(context.Background(), rule, study, changeAt, control); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerifyComposition(b *testing.B) {
	for _, na := range []int{1, 5} {
		b.Run(fmt.Sprintf("attrs-%d", na), func(b *testing.B) {
			v, study, changeAt, control := verifierFixture(b, 100)
			attrs := []string{inventory.AttrMarket, inventory.AttrHWVersion,
				inventory.AttrMarket, inventory.AttrHWVersion, inventory.AttrMarket}[:na]
			rule := verifier.Rule{Name: "bench", Group: kpi.Scorecard,
				Attributes: attrs, Timescales: []int{48, 96}, PreWindow: 96}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := v.VerifyContext(context.Background(), rule, study, changeAt, control); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkVerifyNodes(b *testing.B) {
	for _, n := range []int{100, 400} {
		b.Run(fmt.Sprintf("nodes-%d", n), func(b *testing.B) {
			v, study, changeAt, control := verifierFixture(b, n)
			rule := verifier.Rule{Name: "bench", Group: kpi.Scorecard,
				Timescales: []int{48, 96}, PreWindow: 96}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := v.VerifyContext(context.Background(), rule, study, changeAt, control); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- T3: code re-use accounting ---------------------------------------------

func BenchmarkTable3Reuse(b *testing.B) {
	c := catalog.New()
	nfs := map[string]catalog.ImplKind{}
	for _, nf := range baseline.EvalNFTypes() {
		nfs[nf] = catalog.ImplAnsible
	}
	for _, nf := range []string{"eNodeB", "gNodeB", "switch", "switchA", "switchB", "coreA", "coreB"} {
		nfs[nf] = catalog.ImplVendorCLI
	}
	catalog.Seed(c, nfs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.Table3(c); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (DESIGN.md §5) -------------------------------------------------

// AblationLinking compares the model statistics of the linking-variable
// (Eq. 2-3) group-count encoding against the primary-variable-only size,
// quantifying the expressiveness/size trade-off of §3.3.2.
func BenchmarkAblationLinkingStats(b *testing.B) {
	_, sub := plannerInventory(b, 600)
	doc := `{
	  "scheduling_window": {"start": "2021-01-01 00:00:00", "end": "2021-01-31 00:00:00",
	    "granularity": {"metric":"day","value":1}},
	  "schedulable_attribute": "common_id",
	  "constraints": [
	    {"name": "concurrency", "base_attribute": "market", "default_capacity": 2},
	    {"name": "concurrency", "base_attribute": "common_id", "default_capacity": 50}
	  ]
	}`
	req, err := intent.Parse([]byte(doc))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := translate.Translate(req, sub, translate.Options{RequireAll: true})
		if err != nil {
			b.Fatal(err)
		}
		s := tr.Model.Stats()
		if s.DerivedVars == 0 || s.LinkRows == 0 {
			b.Fatal("linking encoding missing")
		}
	}
}

// AblationConsistency measures solver effort with vs without consistency
// grouping (the 4x claim).
func BenchmarkAblationConsistency(b *testing.B) {
	for _, grouped := range []bool{false, true} {
		name := "ungrouped"
		if grouped {
			name = "grouped"
		}
		b.Run(name, func(b *testing.B) {
			n := 48
			m := &model.Model{
				Name:       "ablate",
				NumSlots:   12,
				RequireAll: true,
			}
			for i := 0; i < n; i++ {
				m.Items = append(m.Items, model.Item{ID: fmt.Sprintf("x%02d", i)})
			}
			all := make([]int, n)
			for i := range all {
				all[i] = i
			}
			m.Capacities = []model.Capacity{{Name: "g", Sets: [][]int{all}, Cap: 4}}
			if grouped {
				for i := 0; i < n; i += 4 {
					m.SameSlot = append(m.SameSlot, []int{i, i + 1, i + 2, i + 3})
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := solver.SolveContext(context.Background(), m, solver.Options{MaxNodes: 200_000}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// AblationRestarts measures heuristic quality/cost at different restart
// budgets.
func BenchmarkAblationRestarts(b *testing.B) {
	net, err := netgen.Cellular(netgen.CellularConfig{
		Seed: 13, Markets: 4, TACsPerMarket: 6, USIDsPerTAC: 20,
		GNodeBFraction: 1, EMSCount: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	bases := net.Inv.Filter(func(e *inventory.Element) bool {
		t, _ := e.Attr(inventory.AttrNFType)
		return t == "eNodeB" || t == "gNodeB"
	})
	sub := net.Inv.Subset(bases)
	conflicts := map[string][]int{}
	for i, id := range sub.IDs() {
		if i%4 == 0 {
			conflicts[id] = []int{i % 10}
		}
	}
	for _, restarts := range []int{1, 8} {
		b.Run(fmt.Sprintf("restarts-%d", restarts), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := heuristic.SolveContext(context.Background(), heuristic.Instance{
					Inv: sub, MaxTimeslots: 30, SlotCapacity: 60,
					Conflicts: conflicts, Restarts: restarts, Seed: 14,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Conflicts), "conflicts")
			}
		})
	}
}

// AblationConflictRep compares sparse per-item conflict-slot lists against
// a dense per-(item,slot) matrix representation during model checking.
func BenchmarkAblationConflictRep(b *testing.B) {
	n, T := 2000, 60
	sparse := make([][]int, n)
	dense := make([][]bool, n)
	for i := 0; i < n; i++ {
		dense[i] = make([]bool, T)
		if i%5 == 0 {
			sparse[i] = []int{i % T}
			dense[i][i%T] = true
		}
	}
	slots := make([]int, n)
	for i := range slots {
		slots[i] = i % T
	}
	b.Run("sparse", func(b *testing.B) {
		total := 0
		for i := 0; i < b.N; i++ {
			for item, t := range slots {
				for _, c := range sparse[item] {
					if c == t {
						total++
					}
				}
			}
		}
		_ = total
	})
	b.Run("dense", func(b *testing.B) {
		total := 0
		for i := 0; i < b.N; i++ {
			for item, t := range slots {
				if dense[item][t] {
					total++
				}
			}
		}
		_ = total
	})
}
