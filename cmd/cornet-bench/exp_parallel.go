// Experiment bench-parallel: the parallel-search baseline. It times the
// branch-and-bound solver and the Appendix-C heuristic on the Section-4.2
// dense-template scenario (uniformity + localize active, >=200 instances)
// at increasing worker counts, prints the speedup table, and writes the
// machine-readable BENCH_plan.json so later PRs can track the perf
// trajectory against this PR's numbers.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"cornet/internal/inventory"
	"cornet/internal/netgen"
	"cornet/internal/plan/heuristic"
	"cornet/internal/plan/intent"
	"cornet/internal/plan/solver"
	"cornet/internal/plan/translate"
)

func init() {
	register("bench-parallel", "parallel search speedup baseline (emits BENCH_plan.json)", runBenchParallel)
}

// benchEntry is one (backend, workers) measurement in BENCH_plan.json.
type benchEntry struct {
	Backend     string  `json:"backend"`
	Workers     int     `json:"workers"`
	Reps        int     `json:"reps"`
	NsPerOp     int64   `json:"ns_per_op"`
	Nodes       int64   `json:"nodes,omitempty"`
	NodesPerSec float64 `json:"nodes_per_sec,omitempty"`
	// DomainPrunes counts start slots removed by the solver's capacity
	// forward-checking (solver backend only).
	DomainPrunes int64 `json:"domain_prunes,omitempty"`
	// Steals/Splits/ReplayNodes are the work-stealing scheduler's totals
	// (solver backend, workers > 1 only).
	Steals      int64   `json:"steals,omitempty"`
	Splits      int64   `json:"splits,omitempty"`
	ReplayNodes int64   `json:"replay_nodes,omitempty"`
	SpeedupVs1  float64 `json:"speedup_vs_1"`
	Objective   int64   `json:"objective"`
	// GOMAXPROCS and NumCPU record the host's effective and physical core
	// counts at measurement time, so each entry is self-describing even
	// when extracted from the report.
	GOMAXPROCS int `json:"gomaxprocs"`
	NumCPU     int `json:"num_cpu"`
	// Degraded marks entries whose requested worker count exceeds the
	// cores actually available: wall-clock speedup cannot show and the
	// entry must not be read as a scaling datapoint.
	Degraded bool `json:"degraded,omitempty"`
}

// benchReport is the BENCH_plan.json schema.
type benchReport struct {
	Scenario   string `json:"scenario"`
	Instances  int    `json:"instances"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	// Note marks artifacts captured on hosts where parallel speedups
	// cannot show (num_cpu/GOMAXPROCS of 1), so a flat speedup column in a
	// checked-in report explains itself.
	Note    string       `json:"note,omitempty"`
	Entries []benchEntry `json:"entries"`
}

// denseScenario builds the Section-4.2 blow-up case: the uniformity and
// localize templates active together over the cellular inventory.
func denseScenario(n int) (*translate.Result, *inventory.Inventory, error) {
	net, err := netgen.Cellular(netgen.CellularConfig{
		Seed: 10, Markets: 4, TACsPerMarket: 5, USIDsPerTAC: n/20 + 1,
		GNodeBFraction: 0.5, EMSCount: 4,
	})
	if err != nil {
		return nil, nil, err
	}
	enbs := net.Inv.ByAttr(inventory.AttrNFType, "eNodeB")
	if len(enbs) > n {
		enbs = enbs[:n]
	}
	sub := net.Inv.Subset(enbs)
	comp := plannerComposition{uniformity: true, localize: true, minimizeConflicts: true}
	req, err := intent.Parse([]byte(comp.intentJSON(200)))
	if err != nil {
		return nil, nil, err
	}
	tr, err := translate.Translate(req, sub, translate.Options{Topology: net.Topo})
	if err != nil {
		return nil, nil, err
	}
	return tr, sub, nil
}

func runBenchParallel(quick bool) error {
	const instances = 240 // >=200, the paper's dense-template regime
	reps := 3
	nodeBudget := int64(300_000)
	restarts := 32
	if quick {
		reps = 1
		nodeBudget = 60_000
		restarts = 8
	}
	tr, sub, err := denseScenario(instances)
	if err != nil {
		return err
	}
	workerCounts := []int{1, 2, 4, 8}
	gmp, ncpu := runtime.GOMAXPROCS(0), runtime.NumCPU()
	avail := gmp
	if ncpu < avail {
		avail = ncpu
	}
	report := benchReport{
		Scenario:   "dense-template uniformity+localize (Section 4.2)",
		Instances:  sub.Len(),
		GOMAXPROCS: gmp,
		NumCPU:     ncpu,
	}
	if ncpu == 1 || gmp == 1 {
		report.Note = "single-core host: speedup_vs_1 is flat by construction; rerun on a multi-core host for the scaling curve"
	}
	fmt.Printf("scenario: %d instances, uniformity+localize, node budget %d, %d reps (GOMAXPROCS=%d, NumCPU=%d)\n\n",
		sub.Len(), nodeBudget, reps, gmp, ncpu)

	// Solver: fixed node budget, so speedup is wall-clock for the same
	// exploration effort.
	fmt.Printf("%-10s %8s %14s %14s %10s\n", "backend", "workers", "ns/op", "nodes/sec", "speedup")
	var solverBase float64
	for _, w := range workerCounts {
		var elapsed time.Duration
		var nodes, prunes, steals, splits, replay, objective int64
		for rep := 0; rep < reps; rep++ {
			start := time.Now()
			sched, err := solver.SolveContext(context.Background(), tr.Model, solver.Options{
				Parallelism: w, MaxNodes: nodeBudget, TimeLimit: time.Hour,
			})
			elapsed += time.Since(start)
			if err != nil {
				return fmt.Errorf("solver workers=%d: %w", w, err)
			}
			nodes += sched.Nodes
			prunes += sched.DomainPrunes
			steals += sched.Steals
			splits += sched.Splits
			replay += sched.ReplayNodes
			objective = sched.Cost
		}
		nsPerOp := elapsed.Nanoseconds() / int64(reps)
		nodesPerSec := float64(nodes) / elapsed.Seconds()
		speedup := 1.0
		if w == 1 {
			solverBase = float64(nsPerOp)
		} else if nsPerOp > 0 {
			speedup = solverBase / float64(nsPerOp)
		}
		degraded := w > avail
		if degraded {
			fmt.Fprintf(os.Stderr,
				"warning: workers=%d exceeds available cores (%d); entry marked degraded — not a scaling datapoint\n",
				w, avail)
		}
		report.Entries = append(report.Entries, benchEntry{
			Backend: "solver", Workers: w, Reps: reps, NsPerOp: nsPerOp,
			Nodes: nodes / int64(reps), NodesPerSec: nodesPerSec,
			DomainPrunes: prunes / int64(reps),
			Steals:       steals / int64(reps), Splits: splits / int64(reps),
			ReplayNodes: replay / int64(reps),
			SpeedupVs1:  speedup, Objective: objective,
			GOMAXPROCS: gmp, NumCPU: ncpu, Degraded: degraded,
		})
		fmt.Printf("%-10s %8d %14d %14.0f %9.2fx\n", "solver", w, nsPerOp, nodesPerSec, speedup)
	}

	// Heuristic: fixed restart budget dealt to the pool.
	inst := heuristic.Instance{
		Inv: sub, MaxTimeslots: 30, SlotCapacity: sub.Len()/30 + 1,
		EMSCapacity: 200, Seed: 10, Restarts: restarts,
	}
	var heurBase float64
	for _, w := range workerCounts {
		var elapsed time.Duration
		var objective int64
		for rep := 0; rep < reps; rep++ {
			in := inst
			in.Parallelism = w
			start := time.Now()
			res, err := heuristic.SolveContext(context.Background(), in)
			if err != nil {
				return err
			}
			elapsed += time.Since(start)
			objective = res.WTCT
		}
		nsPerOp := elapsed.Nanoseconds() / int64(reps)
		speedup := 1.0
		if w == 1 {
			heurBase = float64(nsPerOp)
		} else if nsPerOp > 0 {
			speedup = heurBase / float64(nsPerOp)
		}
		report.Entries = append(report.Entries, benchEntry{
			Backend: "heuristic", Workers: w, Reps: reps, NsPerOp: nsPerOp,
			SpeedupVs1: speedup, Objective: objective,
			GOMAXPROCS: gmp, NumCPU: ncpu, Degraded: w > avail,
		})
		fmt.Printf("%-10s %8d %14d %14s %9.2fx\n", "heuristic", w, nsPerOp, "-", speedup)
	}

	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_plan.json", append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("\nwrote BENCH_plan.json")
	if report.GOMAXPROCS == 1 {
		fmt.Println("note: single-CPU host — speedups are flat here; run on a multi-core host for the scaling curve")
	}
	return nil
}
