// Command cornet-plan discovers a change deployment schedule from a
// high-level intent document (Listing 1 format).
//
// Usage:
//
//	cornet-plan -intent intent.json [-inventory ran|vpn|sdwan] [-size N]
//	            [-render] [-backend auto|solver|heuristic]
//	            [-timeout D] [-stats] [-seed N] [-parallelism N]
//	            [-trace trace.json]
//
// The inventory is generated synthetically (this repository's substitute
// for the production inventory databases); -size controls the element
// count. The discovered schedule is printed per timeslot, with leftovers
// and the rendered constraint model on request. -timeout bounds schedule
// discovery: at the deadline the best schedule found so far is returned
// and marked timed-out. -backend auto uses the solver up to 1,000
// elements and the heuristic beyond; solver and heuristic pin one.
// -parallelism sets the search worker count per backend (branch-and-bound
// root workers / heuristic restart pool); 0 uses every CPU, 1 forces
// sequential search.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"cornet/internal/catalog"
	"cornet/internal/core"
	"cornet/internal/inventory"
	"cornet/internal/netgen"
	"cornet/internal/obs"
	"cornet/internal/plan/engine"
	"cornet/internal/plan/solver"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "cornet-plan:", err)
		os.Exit(1)
	}
}

// run is the command: it parses args (the command line after the program
// name) and writes the report to w. Flag errors and -h exit the process as
// the flag package does for a command line.
func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	var (
		intentPath = fs.String("intent", "", "path to the intent JSON (required)")
		invKind    = fs.String("inventory", "ran", "synthetic inventory: ran | vpn | sdwan")
		size       = fs.Int("size", 400, "approximate inventory size")
		render     = fs.Bool("render", false, "print the generated constraint model")
		backend    = fs.String("backend", "auto", "planning backend: auto | solver | heuristic")
		timeout    = fs.Duration("timeout", 0, "schedule discovery deadline (0 = backend defaults)")
		showStats  = fs.Bool("stats", false, "print per-backend search statistics")
		seed       = fs.Int64("seed", 1, "generator seed")
		parallel   = fs.Int("parallelism", 0, "search workers per backend (0 = all CPUs, 1 = sequential)")
		maxShow    = fs.Int("show", 8, "max elements to list per timeslot")
		tracePath  = fs.String("trace", "", "write the discovery trace span tree (JSON) to this file")
	)
	_ = fs.Parse(args) // ExitOnError: a bad flag or -h has already exited
	if *intentPath == "" {
		fmt.Fprintln(os.Stderr, "cornet-plan: -intent is required")
		fs.Usage()
		os.Exit(2)
	}
	doc, err := os.ReadFile(*intentPath)
	if err != nil {
		return err
	}

	net, err := buildNetwork(*invKind, *size, *seed)
	if err != nil {
		return err
	}
	// Plan over the edge elements (base stations / CEs / vGWs), not the
	// transport and core substrate.
	targets := net.Inv.Filter(func(e *inventory.Element) bool {
		layer, _ := e.Attr(inventory.AttrLayer)
		return layer == "edge"
	})
	sub := net.Inv.Subset(targets)
	fmt.Fprintf(w, "inventory: %s, %d schedulable elements (of %d total)\n",
		*invKind, sub.Len(), net.Inv.Len())

	f := core.New(map[string]catalog.ImplKind{},
		core.WithSolverOptions(solver.Options{FirstSolutionOnly: sub.Len() > 200}))
	opt := core.PlanOptions{
		Topology:    net.Topo,
		RenderModel: *render,
		Seed:        *seed,
		Parallelism: *parallel,
	}
	policy, err := engine.ParsePolicy(*backend)
	if err != nil {
		return err
	}
	opt.Policy = policy

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	var root *obs.Span
	if *tracePath != "" {
		ctx, root = obs.StartTrace(ctx, "cornet-plan")
	}
	res, err := f.PlanScheduleContext(ctx, doc, sub, opt)
	root.End()
	if root != nil {
		data, jerr := root.JSON()
		if jerr == nil {
			jerr = os.WriteFile(*tracePath, data, 0o644)
		}
		if jerr != nil {
			fmt.Fprintln(os.Stderr, "cornet-plan: write trace:", jerr)
		} else {
			fmt.Fprintf(w, "trace written to %s\n", *tracePath)
		}
	}
	if err != nil {
		return err
	}
	timedOut := ""
	if res.TimedOut {
		timedOut = " timed_out=true"
	}
	fmt.Fprintf(w, "method=%s discovery=%v makespan=%d conflicts=%d scheduled=%d leftovers=%d%s\n",
		res.Method, res.Discovery, res.Makespan, res.Conflicts,
		len(res.Assignment), len(res.Leftovers), timedOut)
	if *showStats {
		for _, st := range res.Stats {
			marker := " "
			if st.Winner {
				marker = "*"
			}
			line := fmt.Sprintf("  %s backend=%-9s wall=%-12v nodes=%d restarts=%d objective=%d conflicts=%d",
				marker, st.Backend, st.Wall, st.Nodes, st.Restarts, st.Objective, st.Conflicts)
			if st.Workers > 0 {
				line += fmt.Sprintf(" workers=%d", st.Workers)
				if st.NodesPerWorker > 0 {
					line += fmt.Sprintf(" nodes_per_worker=%d", st.NodesPerWorker)
				}
			}
			if st.DomainPrunes > 0 {
				line += fmt.Sprintf(" domain_prunes=%d", st.DomainPrunes)
			}
			if st.Splits > 0 || st.Steals > 0 {
				line += fmt.Sprintf(" steals=%d splits=%d replay_nodes=%d",
					st.Steals, st.Splits, st.ReplayNodes)
			}
			if st.TimedOut {
				line += " timed_out=true"
			}
			fmt.Fprintln(w, line)
		}
	}

	bySlot := map[int][]string{}
	for id, slot := range res.Assignment {
		bySlot[slot] = append(bySlot[slot], id)
	}
	slots := make([]int, 0, len(bySlot))
	for s := range bySlot {
		slots = append(slots, s)
	}
	sort.Ints(slots)
	for _, s := range slots {
		ids := bySlot[s]
		sort.Strings(ids)
		when := ""
		if s < len(res.Slots) {
			when = res.Slots[s].Start.Format("2006-01-02")
		}
		shown := ids
		suffix := ""
		if len(ids) > *maxShow {
			shown = ids[:*maxShow]
			suffix = fmt.Sprintf(" ... (+%d)", len(ids)-*maxShow)
		}
		fmt.Fprintf(w, "  window %2d %s: %d nodes: %v%s\n", s, when, len(ids), shown, suffix)
	}
	if len(res.Leftovers) > 0 {
		fmt.Fprintf(w, "  leftovers (%d): resubmit in the next scheduling window\n", len(res.Leftovers))
	}
	if *render {
		fmt.Fprintln(w, "\n--- generated constraint model ---")
		fmt.Fprintln(w, res.ModelText)
	}
	return nil
}

func buildNetwork(kind string, size int, seed int64) (*netgen.Network, error) {
	switch kind {
	case "ran":
		return netgen.Cellular(netgen.DefaultCellular(size, seed))
	case "vpn":
		return netgen.VPN(netgen.VPNConfig{Seed: seed, Sites: size, VirtualFraction: 0.5})
	case "sdwan":
		zones := size/10 + 1
		return netgen.SDWAN(netgen.SDWANConfig{Seed: seed, CloudZones: zones, GatewaysPerZone: 4, CPEs: size})
	default:
		return nil, fmt.Errorf("unknown inventory kind %q", kind)
	}
}
