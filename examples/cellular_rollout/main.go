// Cellular network-wide roll-out (Sections 5.2 and 2.2): plan a software
// upgrade across thousands of 4G eNodeBs and 5G gNodeBs with the custom
// heuristic (consistency on USID, uniformity on timezone, localize on
// market, EMS concurrency), deploy it in staggered maintenance windows,
// and verify the impact with study/control statistics — including the
// Fig. 2 scenario where only one carrier frequency degrades, which the
// per-attribute drill-down isolates so the operations team can halt just
// the problem configuration instead of the whole network.
package main

import (
	"context"
	"fmt"
	"log"
	"sort"
	"time"

	"cornet/internal/catalog"
	"cornet/internal/core"
	"cornet/internal/inventory"
	"cornet/internal/kpigen"
	"cornet/internal/netgen"
	"cornet/internal/testbed"
	"cornet/internal/verify/groups"
	"cornet/internal/verify/kpi"
	"cornet/internal/verify/verifier"
)

func main() {
	// --- A RAN with a few thousand base stations. ------------------------
	net, err := netgen.Cellular(netgen.CellularConfig{
		Seed: 21, Markets: 6, TACsPerMarket: 8, USIDsPerTAC: 40,
		GNodeBFraction: 0.8, EMSCount: 8,
		Vendors: []string{"vendorA", "vendorB"},
	})
	if err != nil {
		log.Fatal(err)
	}
	enbs := net.Inv.ByAttr(inventory.AttrNFType, "eNodeB")
	gnbs := net.Inv.ByAttr(inventory.AttrNFType, "gNodeB")
	bases := append(append([]string{}, enbs...), gnbs...)
	fmt.Printf("RAN: %d eNodeBs + %d gNodeBs across %d markets\n",
		len(enbs), len(gnbs), len(net.Inv.AttrValues(inventory.AttrMarket)))

	f := core.New(map[string]catalog.ImplKind{
		"eNodeB": catalog.ImplVendorCLI, "gNodeB": catalog.ImplVendorCLI,
	}, core.WithInvoker(testbed.New(21)))

	// --- Plan the roll-out with the Appendix C heuristic. ----------------
	intentDoc := `{
	  "scheduling_window": {"start": "2021-09-01 00:00:00", "end": "2021-10-30 00:00:00",
	    "granularity": {"metric":"day","value":1}},
	  "schedulable_attribute": "common_id",
	  "constraints": [
	    {"name": "concurrency", "base_attribute": "common_id", "default_capacity": 120},
	    {"name": "concurrency", "base_attribute": "common_id", "aggregate_attribute": "ems",
	     "default_capacity": 40},
	    {"name": "consistency", "attribute": "usid"},
	    {"name": "uniformity", "attribute": "timezone", "value": 0},
	    {"name": "localize", "attribute": "market"}
	  ]
	}`
	sub := net.Inv.Subset(bases)
	// Bound schedule discovery: past the deadline the planner returns its
	// best schedule so far instead of running open-ended.
	planCtx, cancelPlan := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancelPlan()
	plan, err := f.PlanScheduleContext(planCtx, []byte(intentDoc), sub, core.PlanOptions{Seed: 5})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("plan: method=%s, %d scheduled / %d leftover, makespan=%d windows, discovery=%v\n",
		plan.Method, len(plan.Assignment), len(plan.Leftovers), plan.Makespan,
		plan.Discovery.Round(1000000))

	// Spot-check the USID consistency on the plan.
	split := 0
	for _, usid := range sub.AttrValues(inventory.AttrUSID)[:200] {
		members := sub.ByAttr(inventory.AttrUSID, usid)
		for _, m := range members[1:] {
			a, oka := plan.Assignment[m]
			b, okb := plan.Assignment[members[0]]
			if oka && okb && a != b {
				split++
			}
		}
	}
	fmt.Printf("USID consistency spot-check: %d split sites (want 0)\n", split)

	// --- FFA: verify the first maintenance window with drill-down. -------
	// The study group is whatever the plan put in window 0 (the heuristic
	// schedules one market at a time, so these share a market).
	var study []string
	for _, id := range sub.IDs() {
		if slot, ok := plan.Assignment[id]; ok && slot == 0 && len(study) < 40 {
			study = append(study, id)
		}
	}
	if len(study) == 0 {
		log.Fatal("no FFA study group in window 0")
	}
	control, err := f.ControlGroup(net.Topo, net.Inv, study, groups.SecondMinusFirst,
		groups.Options{MaxSize: 60})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("FFA verification: study=%d control=%d (2nd-minus-1st tier)\n", len(study), len(control))

	// KPIs: accessibility and throughput.
	mustDefine(f, "rrc-success-rate", "100 * rrc_success / rrc_attempts", true)
	mustDefine(f, "dl-throughput", "dl_throughput_num / dl_throughput_den", true)

	// The new software degrades throughput ONLY on one hardware version —
	// the previously-unknown configuration interaction of Section 2.2.
	// (Fig. 2's per-carrier variant works the same way with per-carrier
	// counter feeds; hw_version is single-valued per node, which keeps the
	// attribute partitions disjoint.)
	badHW := ""
	changeSample := 7 * 24
	changeAt := map[string]int{}
	var impacts []kpigen.Impact
	for _, id := range study {
		changeAt[id] = changeSample
		e, _ := net.Inv.Get(id)
		hw, _ := e.Attr(inventory.AttrHWVersion)
		if badHW == "" {
			badHW = hw
		}
		if hw == badHW {
			impacts = append(impacts, kpigen.Impact{
				Instance: id, Counter: "dl_throughput_num", At: changeSample, Factor: 0.7,
			})
		}
	}
	fmt.Printf("injected degradation on hardware version %s only\n", badHW)
	all := append(append([]string{}, study...), control...)
	ds, err := kpigen.Generate(all, kpigen.Config{
		Seed: 33, Days: 14, SamplesPerDay: 24,
		Counters: kpigen.DefaultCellularCounters(),
	}, impacts)
	if err != nil {
		log.Fatal(err)
	}

	rep, err := f.VerifyImpactContext(context.Background(), ds, net.Inv, verifier.Rule{
		Name:       "sw-5.1-ffa",
		KPIs:       []string{"rrc-success-rate", "dl-throughput"},
		Attributes: []string{inventory.AttrHWVersion},
		Timescales: []int{24, 96},
		PreWindow:  120,
	}, study, changeAt, control)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(rep.Summary())
	for _, res := range rep.Results {
		if per, ok := res.PerAttribute[inventory.AttrHWVersion]; ok {
			fmt.Printf("  %s per hardware version:\n", res.KPI)
			hws := make([]string, 0, len(per))
			for hw := range per {
				hws = append(hws, hw)
			}
			sort.Strings(hws)
			for _, hw := range hws {
				fmt.Printf("    %-14s %s\n", hw, per[hw])
			}
		}
	}
	if !rep.Go {
		fmt.Println("decision: HALT roll-out for the degraded configuration;")
		fmt.Println("          continue for clean carriers while the patch is developed (§5.2)")
	}
}

func mustDefine(f *core.Framework, name, eq string, higher bool) {
	if _, err := f.Registry.Define(name, kpi.Scorecard, eq, higher, 0); err != nil {
		log.Fatal(err)
	}
}
