package decompose

import (
	"context"
	"errors"
	"strings"
	"testing"

	"cornet/internal/plan/model"
	"cornet/internal/plan/solver"
)

func TestSolveContextCancelled(t *testing.T) {
	m := &model.Model{
		Name:       "ctx",
		Items:      items(8),
		NumSlots:   4,
		RequireAll: true,
		Capacities: []model.Capacity{
			{Name: "per-pool", Sets: [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}}, Cap: 1},
		},
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := SolveContext(ctx, m, SolveOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
}

func TestSolveContextPropagatesWorkerError(t *testing.T) {
	// Two independent pools, cap 1 each: pool A (3 items) fits the 4-slot
	// window, pool B (5 items) cannot under RequireAll. The failing
	// component's error must surface, wrapped with its identity.
	m := &model.Model{
		Name:       "worker-error",
		Items:      items(8),
		NumSlots:   4,
		RequireAll: true,
		Capacities: []model.Capacity{
			{Name: "per-pool", Sets: [][]int{{0, 1, 2}, {3, 4, 5, 6, 7}}, Cap: 1},
		},
	}
	_, err := SolveContext(context.Background(), m, SolveOptions{})
	if !errors.Is(err, solver.ErrInfeasible) {
		t.Fatalf("err = %v, want wrapped solver.ErrInfeasible", err)
	}
	if !strings.Contains(err.Error(), "decompose: component") {
		t.Fatalf("err = %v, want component identity in message", err)
	}
}
