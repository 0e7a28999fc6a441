package solver

import (
	"context"
	"errors"
	"testing"
	"time"

	"cornet/internal/plan/model"
)

func ctxModel() *model.Model {
	return &model.Model{
		Name:       "ctx",
		Items:      items(6),
		NumSlots:   3,
		RequireAll: true,
		Capacities: []model.Capacity{{Name: "g", Sets: [][]int{{0, 1, 2, 3, 4, 5}}, Cap: 2}},
	}
}

func TestSolveContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := SolveContext(ctx, ctxModel(), Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
}

func TestSolveContextDeadlineExceeded(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := SolveContext(ctx, ctxModel(), Options{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want wrapped context.DeadlineExceeded", err)
	}
}

func TestSolveContextBackgroundMatchesSolve(t *testing.T) {
	want, err := SolveContext(context.Background(), ctxModel(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := SolveContext(context.Background(), ctxModel(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Makespan != want.Makespan || got.Conflicts != want.Conflicts || got.Optimal != want.Optimal {
		t.Fatalf("SolveContext = %+v, Solve = %+v", got, want)
	}
}

func TestSolveContextDeadlineBeforeTimeLimit(t *testing.T) {
	// A live context deadline shorter than TimeLimit must tighten the
	// soft budget: the search hands back its incumbent near the context
	// deadline instead of running on and losing it to ctx.Err().
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	start := time.Now()
	sched, err := SolveContext(ctx, denseModel(240), Options{
		Parallelism: 1, MaxNodes: 1 << 40, TimeLimit: time.Hour,
	})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("SolveContext: %v (want incumbent, elapsed %v)", err, elapsed)
	}
	if sched.Optimal {
		t.Fatal("dense model unexpectedly proved optimal before the deadline")
	}
	if elapsed > 5*time.Second {
		t.Fatalf("solve ran %v, ignored the 300ms context deadline", elapsed)
	}
}
