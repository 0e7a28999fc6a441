// Experiment scaling-gate: the multicore CI smoke for the work-stealing
// solver. It runs the dense-template scenario at 1 and 4 workers in the
// same process and fails if the 4-worker nodes/sec throughput is below
// 2.0x the 1-worker figure from the same run — a deliberately loose gate
// (the checked-in baseline targets ~3x) so CI noise does not flake it.
// Hosts with fewer than 4 usable cores skip with a note instead of
// reporting a meaningless failure.
package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"cornet/internal/plan/solver"
)

func init() {
	register("scaling-gate", "multicore smoke: 4-worker solver must beat 1 worker by >=2x nodes/sec", runScalingGate)
}

// scalingGateMinRatio is the 4-vs-1-worker nodes/sec floor the gate
// enforces. Relative-to-same-run, so host speed does not matter.
const scalingGateMinRatio = 2.0

func runScalingGate(quick bool) error {
	avail := runtime.GOMAXPROCS(0)
	if ncpu := runtime.NumCPU(); ncpu < avail {
		avail = ncpu
	}
	if avail < 4 {
		fmt.Printf("skip: host has %d usable cores (< 4); the scaling gate needs real parallel hardware\n", avail)
		return nil
	}
	const instances = 240
	nodeBudget := int64(300_000)
	reps := 3
	if quick {
		nodeBudget = 60_000
		reps = 1
	}
	tr, sub, err := denseScenario(instances)
	if err != nil {
		return err
	}
	fmt.Printf("scenario: %d instances, node budget %d, %d reps\n", sub.Len(), nodeBudget, reps)

	rate := func(workers int) (float64, error) {
		var elapsed time.Duration
		var nodes int64
		for rep := 0; rep < reps; rep++ {
			start := time.Now()
			sched, err := solver.SolveContext(context.Background(), tr.Model, solver.Options{
				Parallelism: workers, MaxNodes: nodeBudget, TimeLimit: time.Hour,
			})
			elapsed += time.Since(start)
			if err != nil {
				return 0, fmt.Errorf("solver workers=%d: %w", workers, err)
			}
			nodes += sched.Nodes
		}
		return float64(nodes) / elapsed.Seconds(), nil
	}

	base, err := rate(1)
	if err != nil {
		return err
	}
	wide, err := rate(4)
	if err != nil {
		return err
	}
	ratio := 0.0
	if base > 0 {
		ratio = wide / base
	}
	fmt.Printf("nodes/sec: 1 worker %14.0f\n", base)
	fmt.Printf("nodes/sec: 4 workers %13.0f  (%.2fx)\n", wide, ratio)
	if ratio < scalingGateMinRatio {
		return fmt.Errorf("scaling gate failed: 4-worker throughput is %.2fx the 1-worker figure (floor %.1fx)",
			ratio, scalingGateMinRatio)
	}
	fmt.Printf("gate passed: %.2fx >= %.1fx\n", ratio, scalingGateMinRatio)
	return nil
}
