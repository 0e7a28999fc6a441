package decompose

import (
	"context"
	"fmt"
	"testing"

	"cornet/internal/plan/model"
	"cornet/internal/plan/solver"
)

func items(n int) []model.Item {
	out := make([]model.Item, n)
	for i := range out {
		out[i] = model.Item{ID: fmt.Sprintf("n%03d", i)}
	}
	return out
}

func all(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestConsistencyGroupingShrinksSearch(t *testing.T) {
	// The paper's 4x claim: a composition WITH the consistency constraint
	// searches over groups (6 blocks) instead of nodes (24 items) and
	// discovers schedules with far less effort than the same composition
	// WITHOUT it.
	n := 24
	grouped := &model.Model{
		Name:       "grouped",
		Items:      items(n),
		NumSlots:   8,
		RequireAll: true,
		Capacities: []model.Capacity{{Name: "g", Sets: [][]int{all(n)}, Cap: 4}},
	}
	for i := 0; i < n; i += 4 {
		grouped.SameSlot = append(grouped.SameSlot, []int{i, i + 1, i + 2, i + 3})
	}
	ungrouped := &model.Model{
		Name:       "ungrouped",
		Items:      items(n),
		NumSlots:   8,
		RequireAll: true,
		Capacities: []model.Capacity{{Name: "g", Sets: [][]int{all(n)}, Cap: 4}},
	}
	g, err := solver.SolveContext(context.Background(), grouped, solver.Options{MaxNodes: 500_000})
	if err != nil {
		t.Fatal(err)
	}
	u, err := solver.SolveContext(context.Background(), ungrouped, solver.Options{MaxNodes: 500_000})
	if err != nil {
		t.Fatal(err)
	}
	if g.Nodes >= u.Nodes {
		t.Fatalf("consistency grouping did not shrink search: %d vs %d nodes", g.Nodes, u.Nodes)
	}
}

func TestSplitIndependentPools(t *testing.T) {
	// Two pools with per-pool capacities and no global constraint: two
	// independent components.
	m := &model.Model{
		Name:       "split",
		Items:      items(8),
		NumSlots:   4,
		RequireAll: true,
		Capacities: []model.Capacity{
			{Name: "per-pool", Sets: [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}}, Cap: 1},
		},
	}
	subs, idx, err := Split(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 2 {
		t.Fatalf("components = %d", len(subs))
	}
	if len(idx[0]) != 4 || len(idx[1]) != 4 {
		t.Fatalf("indexes = %v", idx)
	}
	for _, sub := range subs {
		if len(sub.Capacities) != 1 || len(sub.Capacities[0].Sets) != 1 {
			t.Fatalf("sub capacities = %+v", sub.Capacities)
		}
	}
}

func TestSplitGlobalConstraintSingleComponent(t *testing.T) {
	m := &model.Model{
		Items:      items(6),
		NumSlots:   3,
		Capacities: []model.Capacity{{Name: "g", Sets: [][]int{all(6)}, Cap: 2}},
	}
	subs, _, err := Split(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 1 {
		t.Fatalf("components = %d", len(subs))
	}
	// Uniformity forces a single component too.
	m2 := &model.Model{
		Items:    items(4),
		NumSlots: 2,
		Capacities: []model.Capacity{
			{Name: "per-pool", Sets: [][]int{{0, 1}, {2, 3}}, Cap: 1},
		},
		Uniform: []model.Uniform{{Name: "tz", Values: []float64{1, 1, 2, 2}, MaxDist: 0}},
	}
	subs2, _, err := Split(m2)
	if err != nil {
		t.Fatal(err)
	}
	if len(subs2) != 1 {
		t.Fatalf("uniform model split into %d", len(subs2))
	}
}

func TestSolvePipelineMatchesDirect(t *testing.T) {
	// Decomposed solve must be feasible and no worse than direct solve on
	// separable problems.
	m := &model.Model{
		Name:       "pipe",
		Items:      items(12),
		NumSlots:   4,
		RequireAll: true,
		Capacities: []model.Capacity{
			{Name: "per-pool", Sets: [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}, {8, 9, 10, 11}}, Cap: 2},
		},
		SameSlot: [][]int{{0, 1}, {4, 5}},
	}
	direct, err := solver.SolveContext(context.Background(), m, solver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := SolveContext(context.Background(), m, SolveOptions{Parallelism: 3})
	if err != nil {
		t.Fatal(err)
	}
	if v := m.Check(dec.Slots); len(v) > 0 {
		t.Fatalf("violations: %v", v)
	}
	if dec.Cost > direct.Cost {
		t.Fatalf("decomposed cost %d > direct %d", dec.Cost, direct.Cost)
	}
	if dec.Slots[0] != dec.Slots[1] || dec.Slots[4] != dec.Slots[5] {
		t.Fatalf("consistency lost: %v", dec.Slots)
	}
}

func TestSolveWithoutDecomposition(t *testing.T) {
	m := &model.Model{
		Items:      items(4),
		NumSlots:   2,
		RequireAll: true,
		Capacities: []model.Capacity{{Name: "g", Sets: [][]int{all(4)}, Cap: 2}},
	}
	s, err := SolveContext(context.Background(), m, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Unscheduled != 0 || s.Makespan != 2 {
		t.Fatalf("schedule = %+v", s)
	}
}

func TestSolveContextPartialWarmSeed(t *testing.T) {
	// One global capacity set keeps the model in one component, so the
	// seed reaches the solver whole, disagreeing group included.
	m := &model.Model{
		Name:       "warmc",
		Items:      items(8),
		NumSlots:   4,
		SameSlot:   [][]int{{0, 1}, {2, 3}},
		Capacities: []model.Capacity{{Name: "g", Sets: [][]int{all(8)}, Cap: 3}},
	}
	cold, err := SolveContext(context.Background(), m, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Warm {
		t.Fatal("cold solve flagged Warm")
	}
	seed := map[string]int{}
	for i := range m.Items {
		seed[m.Items[i].ID] = cold.Slots[i]
	}
	var opt SolveOptions
	opt.Solver.WarmSlots = seed
	warm, err := SolveContext(context.Background(), m, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Warm || warm.Cost != cold.Cost {
		t.Fatalf("warm=%v cost %d from the cold optimum, cold cost %d", warm.Warm, warm.Cost, cold.Cost)
	}
	// A seed that splits a consistency group leaves that group unseeded
	// and still warm-starts from the rest.
	seed["n000"] = (seed["n001"] + 1) % 4
	warm, err = SolveContext(context.Background(), m, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Warm || warm.Cost != cold.Cost {
		t.Fatalf("partially-disagreeing seed: warm=%v cost %d, cold cost %d", warm.Warm, warm.Cost, cold.Cost)
	}
}
