package solver

import (
	"context"
	"fmt"
	"testing"

	"cornet/internal/plan/model"
)

// warmModel is a capacity-bound model hard enough that a cold search
// explores a non-trivial tree but still completes to optimality, so
// warm-vs-cold node counts are comparable.
func warmModel() *model.Model {
	n := 12
	its := make([]model.Item, n)
	vals := make([]float64, n)
	for i := range its {
		its[i] = model.Item{ID: fmt.Sprintf("n%03d", i), Weight: 1 + i%3}
		vals[i] = float64(i % 4)
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	return &model.Model{
		Name:       "warm",
		Items:      its,
		NumSlots:   6,
		RequireAll: true,
		Capacities: []model.Capacity{{Name: "g", Sets: [][]int{all}, Cap: 5}},
		Uniform:    []model.Uniform{{Name: "u", Values: vals, MaxDist: 2}},
	}
}

func seedFromSchedule(m *model.Model, s model.Schedule) map[string]int {
	seed := make(map[string]int, len(m.Items))
	for i, t := range s.Slots {
		seed[m.Items[i].ID] = t
	}
	return seed
}

func TestWarmStartSeedsIncumbent(t *testing.T) {
	m := warmModel()
	cold, err := SolveContext(context.Background(), m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !cold.Optimal {
		t.Fatal("cold solve did not complete")
	}
	if cold.Warm {
		t.Fatal("cold schedule flagged Warm")
	}

	warm, err := SolveContext(context.Background(), m, Options{WarmSlots: seedFromSchedule(m, cold)})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Warm {
		t.Fatal("warm schedule not flagged Warm")
	}
	if warm.Cost != cold.Cost {
		t.Fatalf("warm cost %d != cold cost %d", warm.Cost, cold.Cost)
	}
	if !warm.Optimal {
		t.Fatal("warm solve did not complete")
	}
	// Seeded with the optimal incumbent, the search only has to prove
	// optimality; it must not explore more nodes than the cold search
	// that also had to discover the incumbent.
	if warm.Nodes > cold.Nodes {
		t.Fatalf("warm nodes %d > cold nodes %d", warm.Nodes, cold.Nodes)
	}
}

func TestWarmStartReachesSeedCostWithoutSearch(t *testing.T) {
	m := warmModel()
	cold, err := SolveContext(context.Background(), m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// First-solution mode with a seeded incumbent: the seed already IS a
	// solution, so the search returns it after the first improving leaf
	// or immediately.
	warm, err := SolveContext(context.Background(), m, Options{FirstSolutionOnly: true, WarmSlots: seedFromSchedule(m, cold)})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Cost > cold.Cost {
		t.Fatalf("first-solution warm cost %d worse than seed %d", warm.Cost, cold.Cost)
	}
}

func TestWarmStartInfeasibleSeedIgnored(t *testing.T) {
	m := warmModel()
	// Everything in slot 0 violates the capacity: the seed must be
	// discarded and
	// the solve proceed cold.
	bad := make(map[string]int, len(m.Items))
	for i := range m.Items {
		bad[m.Items[i].ID] = 0
	}
	s, err := SolveContext(context.Background(), m, Options{WarmSlots: bad})
	if err != nil {
		t.Fatal(err)
	}
	if s.Warm {
		t.Fatal("infeasible seed accepted as warm incumbent")
	}
	if !s.Optimal {
		t.Fatal("solve did not complete")
	}
}

func TestWarmStartUnknownIDsBecomeLeftovers(t *testing.T) {
	m := warmModel()
	m.RequireAll = false
	cold, err := SolveContext(context.Background(), m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	seed := seedFromSchedule(m, cold)
	// IDs from another model revision are simply absent from the seed
	// vector; items not covered default to leftover (-1), which is
	// feasible when leftovers are allowed.
	seed["ghost"] = 3
	delete(seed, m.Items[0].ID)
	s, err := SolveContext(context.Background(), m, Options{WarmSlots: seed})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Warm {
		t.Fatal("partial seed rejected")
	}
	if s.Cost > cold.Cost+int64(m.SkipPenalty)+1000000 {
		t.Fatalf("warm cost %d implausible", s.Cost)
	}
}

func TestWarmStartParallelSharesBound(t *testing.T) {
	m := warmModel()
	cold, err := SolveContext(context.Background(), m, Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := SolveContext(context.Background(), m, Options{Parallelism: 4, WarmSlots: seedFromSchedule(m, cold)})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Warm {
		t.Fatal("parallel warm schedule not flagged Warm")
	}
	if warm.Cost != cold.Cost {
		t.Fatalf("parallel warm cost %d != cold cost %d", warm.Cost, cold.Cost)
	}
}
