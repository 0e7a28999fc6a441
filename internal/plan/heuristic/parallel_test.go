package heuristic

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// TestSolveParallelismInvariant is the reproducibility contract: because
// each restart's RNG is seeded from (Seed, timezone, restart) and the
// reducer tie-breaks on restart index, the result is identical at any
// worker-pool size.
func TestSolveParallelismInvariant(t *testing.T) {
	inv := ranInv(4, 3, 4)
	conflicts := map[string][]int{}
	i := 0
	for _, id := range inv.IDs() {
		if i%3 == 0 {
			conflicts[id] = []int{i % 10}
		}
		i++
	}
	base := Instance{
		Inv: inv, MaxTimeslots: 30, SlotCapacity: 10, EMSCapacity: 6,
		Conflicts: conflicts, Seed: 42, Restarts: 6,
	}
	seqInst := base
	seqInst.Parallelism = 1
	seq := solve(t, seqInst)
	for _, workers := range []int{2, 4, 8} {
		inst := base
		inst.Parallelism = workers
		got := solve(t, inst)
		if got.WTCT != seq.WTCT || got.Makespan != seq.Makespan ||
			got.Conflicts != seq.Conflicts || len(got.Slots) != len(seq.Slots) {
			t.Fatalf("parallelism=%d diverged: %+v vs sequential %+v", workers, got, seq)
		}
		for id, s := range seq.Slots {
			if got.Slots[id] != s {
				t.Fatalf("parallelism=%d: slot differs for %s (%d vs %d)", workers, id, got.Slots[id], s)
			}
		}
		if got.Workers != workers {
			t.Fatalf("parallelism=%d: Result.Workers = %d", workers, got.Workers)
		}
	}
}

// TestSolveParallelCancellation shows the restart pool observes ctx
// cancellation promptly and still returns the degraded best-so-far pass.
func TestSolveParallelCancellation(t *testing.T) {
	inv := ranInv(6, 5, 6)
	ctx, cancel := context.WithCancel(context.Background())
	inst := Instance{
		Inv: inv, MaxTimeslots: 60, SlotCapacity: 12, Seed: 7,
		Restarts: 64, Parallelism: 4,
	}
	done := make(chan struct{})
	var res Result
	var err error
	start := time.Now()
	go func() {
		res, err = SolveContext(ctx, inst)
		close(done)
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("restart pool did not return after cancellation")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("restart pool took %v to observe cancellation", elapsed)
	}
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want nil or wrapped context.Canceled", err)
	}
	if err == nil {
		// The degraded pass still accounts for every node.
		if len(res.Slots)+len(res.Leftovers) != inv.Len() {
			t.Fatalf("scheduled %d + leftovers %d != %d nodes",
				len(res.Slots), len(res.Leftovers), inv.Len())
		}
	}
}

// TestRestartSeedDistinct guards the (timezone, restart) seed mixer
// against collisions over the ranges real instances use.
func TestRestartSeedDistinct(t *testing.T) {
	seen := map[int64]string{}
	for _, seed := range []int64{0, 1, 42} {
		for tz := 0; tz < 8; tz++ {
			for r := 0; r < 32; r++ {
				k := restartSeed(seed, tz, r)
				at := fmt.Sprintf("seed=%d tz=%d r=%d", seed, tz, r)
				if prev, dup := seen[k]; dup {
					t.Fatalf("restartSeed collision: %s and %s -> %d", prev, at, k)
				}
				seen[k] = at
			}
		}
	}
}
