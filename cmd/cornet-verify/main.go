// Command cornet-verify runs the change impact verifier over a synthetic
// RAN and KPI feed, demonstrating the study/control methodology end to
// end: it injects a labeled impact, derives the control group from the
// topology, and prints the verification report.
//
// Usage:
//
//	cornet-verify [-nodes N] [-impact degradation|improvement|none]
//	              [-kpis scorecard|level-1|level-2|level-3]
//	              [-control 1st-tier|2nd-tier|2nd-minus-1st|same-attribute]
//	              [-attrs market,hw_version] [-seed N] [-trace trace.json]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"cornet/internal/catalog"
	"cornet/internal/core"
	"cornet/internal/inventory"
	"cornet/internal/kpigen"
	"cornet/internal/netgen"
	"cornet/internal/obs"
	"cornet/internal/verify/groups"
	"cornet/internal/verify/kpi"
	"cornet/internal/verify/verifier"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "cornet-verify:", err)
		os.Exit(1)
	}
}

// run is the command: it parses args (the command line after the program
// name) and writes the report to w. Flag errors and -h exit the process as
// the flag package does for a command line.
func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	var (
		nodes     = fs.Int("nodes", 400, "approximate RAN size")
		impact    = fs.String("impact", "degradation", "impact to inject: degradation | improvement | none")
		group     = fs.String("kpis", "scorecard", "KPI group: scorecard | level-1 | level-2 | level-3")
		criterion = fs.String("control", "2nd-minus-1st", "control group criterion")
		attrsFlag = fs.String("attrs", "market", "comma-separated drill-down attributes")
		seed      = fs.Int64("seed", 1, "generator seed")
		studyN    = fs.Int("study", 30, "study group size")
		timeout   = fs.Duration("timeout", 0, "verification deadline (0 = unbounded)")
		tracePath = fs.String("trace", "", "write the verification trace span tree (JSON) to this file")
	)
	_ = fs.Parse(args) // ExitOnError: a bad flag or -h has already exited

	net, err := netgen.Cellular(netgen.DefaultCellular(*nodes, *seed))
	if err != nil {
		return err
	}
	enbs := net.Inv.ByAttr(inventory.AttrNFType, "eNodeB")
	if len(enbs) < *studyN {
		return fmt.Errorf("inventory too small: %d eNodeBs", len(enbs))
	}
	study := enbs[:*studyN]

	f := core.New(map[string]catalog.ImplKind{})
	if err := kpi.SeedCatalog(f.Registry, 0); err != nil {
		return err
	}
	fmt.Fprintf(w, "KPI catalog: %d equations; verifying group %q\n", f.Registry.Len(), *group)

	control, err := f.ControlGroup(net.Topo, net.Inv, study,
		groups.Criterion(*criterion), groups.Options{MaxSize: 2 * *studyN})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "study=%d control=%d (%s)\n", len(study), len(control), *criterion)

	// Generate counter data covering the seeded catalog; inject the
	// requested impact on the first scorecard KPI's counters.
	changeSample := 7 * 24
	changeAt := map[string]int{}
	for _, id := range study {
		changeAt[id] = changeSample
	}
	var impacts []kpigen.Impact
	factor := 0.0
	switch *impact {
	case "degradation":
		factor = 0.6
	case "improvement":
		factor = 1.4
	case "none":
	default:
		return fmt.Errorf("unknown -impact %q", *impact)
	}
	target := kpi.Group(*group)
	defs := f.Registry.ByGroup(target)
	if len(defs) == 0 {
		return fmt.Errorf("unknown KPI group %q", *group)
	}
	if factor != 0 {
		// Hit the success counter of the group's first KPI.
		for _, c := range defs[0].Expr.Counters() {
			if strings.Contains(c, "success") || strings.Contains(c, "num") {
				for _, id := range study {
					impacts = append(impacts, kpigen.Impact{
						Instance: id, Counter: c, At: changeSample, Factor: factor,
					})
				}
				fmt.Fprintf(w, "injected %s (x%.1f) on %s via counter %s\n",
					*impact, factor, defs[0].Name, c)
				break
			}
		}
	}
	all := append(append([]string{}, study...), control...)
	ds, err := kpigen.Generate(all, kpigen.Config{
		Seed: *seed, Days: 14, SamplesPerDay: 24,
		Counters:    kpi.CatalogCounterSpecs(),
		MissingProb: 0.01,
	}, impacts)
	if err != nil {
		return err
	}

	rule := verifier.Rule{
		Name:       fmt.Sprintf("%s-verification", *group),
		Group:      target,
		Timescales: []int{24, 96},
		PreWindow:  120,
	}
	if *attrsFlag != "" {
		rule.Attributes = strings.Split(*attrsFlag, ",")
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	var root *obs.Span
	if *tracePath != "" {
		ctx, root = obs.StartTrace(ctx, "cornet-verify")
	}
	rep, err := f.VerifyImpactContext(ctx, ds, net.Inv, rule, study, changeAt, control)
	root.End()
	if root != nil {
		data, jerr := root.JSON()
		if jerr == nil {
			jerr = os.WriteFile(*tracePath, data, 0o644)
		}
		if jerr != nil {
			fmt.Fprintln(os.Stderr, "cornet-verify: write trace:", jerr)
		} else {
			fmt.Fprintf(w, "trace written to %s\n", *tracePath)
		}
	}
	if err != nil {
		return err
	}
	counts := rep.CountVerdicts()
	fmt.Fprintf(w, "\nverdicts: %d improvement, %d degradation, %d no-impact, %d inconclusive (elapsed %v)\n",
		counts[verifier.Improvement], counts[verifier.Degradation],
		counts[verifier.NoImpact], counts[verifier.Inconclusive], rep.Elapsed)
	fmt.Fprintf(w, "go/no-go: %v\n\n", rep.Go)
	// Print only the flagged KPIs to keep large groups readable.
	shown := 0
	for _, r := range rep.Results {
		if r.Verdict == verifier.Degradation || r.Verdict == verifier.Improvement || shown < 5 {
			flag := ""
			if r.Unexpected {
				flag = "  << UNEXPECTED"
			}
			fmt.Fprintf(w, "  %-22s %-12s p=%.4f shift=%+.1f%%%s\n",
				r.KPI, r.Verdict, r.PValue, 100*r.Shift, flag)
			shown++
		}
	}
	return nil
}
