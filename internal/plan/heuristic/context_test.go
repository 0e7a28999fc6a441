package heuristic

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestSolveContextCancelled(t *testing.T) {
	inv := ranInv(2, 3, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := SolveContext(ctx, Instance{Inv: inv, MaxTimeslots: 30, SlotCapacity: 8, Seed: 3})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
	if !res.TimedOut {
		t.Fatal("aborted search not flagged TimedOut")
	}
}

func TestSolveTimeLimitReturnsBestSoFar(t *testing.T) {
	inv := ranInv(4, 5, 6) // 1200 nodes
	res := solve(t, Instance{
		Inv: inv, MaxTimeslots: 40, SlotCapacity: 20, Seed: 4,
		Restarts:  8,
		TimeLimit: time.Nanosecond, // expires at the first budget check
	})
	if !res.TimedOut {
		t.Fatal("expired budget not flagged TimedOut")
	}
	// Best-so-far contract: every node is either scheduled or a leftover,
	// never both, never dropped.
	if len(res.Slots)+len(res.Leftovers) != inv.Len() {
		t.Fatalf("scheduled %d + leftovers %d != %d nodes",
			len(res.Slots), len(res.Leftovers), inv.Len())
	}
	for _, id := range res.Leftovers {
		if _, dup := res.Slots[id]; dup {
			t.Fatalf("node %s both scheduled and leftover", id)
		}
	}
}

func TestSolveContextBackgroundMatchesSolve(t *testing.T) {
	inv := ranInv(2, 2, 3)
	inst := Instance{Inv: inv, MaxTimeslots: 20, SlotCapacity: 6, Seed: 5}
	want := solve(t, inst)
	got, err := SolveContext(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}
	if got.WTCT != want.WTCT || got.Makespan != want.Makespan ||
		len(got.Slots) != len(want.Slots) || got.TimedOut != want.TimedOut {
		t.Fatalf("SolveContext = %+v, Solve = %+v", got, want)
	}
}
