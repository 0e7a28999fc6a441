package decompose

import (
	"context"
	"fmt"
	"testing"
	"time"

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

func TestContractMergesGroups(t *testing.T) {
	m := &model.Model{
		Name:       "c",
		Items:      items(6),
		NumSlots:   4,
		RequireAll: true,
		SameSlot:   [][]int{{0, 1}, {2, 3, 4}},
		Capacities: []model.Capacity{{Name: "g", Sets: [][]int{all(6)}, Cap: 3}},
		Forbidden:  [][]int{{0}, nil, nil, nil, nil, nil},
		ConflictSlots: [][]int{
			nil, {1}, nil, nil, nil, nil,
		},
	}
	c, expand, err := Contract(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Items) != 3 {
		t.Fatalf("contracted items = %d", len(c.Items))
	}
	// Weights: group {0,1}=2, {2,3,4}=3, singleton=1.
	weights := map[int]bool{}
	for i := range c.Items {
		weights[c.Weight(i)] = true
	}
	if !weights[2] || !weights[3] || !weights[1] {
		t.Fatalf("weights = %+v", c.Items)
	}
	// Forbidden and conflicts propagate to the super-item of members 0,1.
	if len(c.Forbidden[0]) != 1 || len(c.ConflictSlots[0]) != 1 {
		t.Fatalf("super-item constraints: forb=%v confl=%v", c.Forbidden[0], c.ConflictSlots[0])
	}
	// Solve the contracted model; expansion must satisfy the original.
	s, err := solver.SolveContext(context.Background(), c, solver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	orig := expand(s)
	if v := m.Check(orig.Slots); len(v) > 0 {
		t.Fatalf("expanded violations: %v", v)
	}
	if orig.Slots[0] != orig.Slots[1] || orig.Slots[2] != orig.Slots[4] {
		t.Fatalf("consistency broken after expansion: %v", orig.Slots)
	}
}

func TestContractOverlappingGroupsUnion(t *testing.T) {
	m := &model.Model{
		Items:    items(4),
		NumSlots: 2,
		SameSlot: [][]int{{0, 1}, {1, 2}}, // overlapping -> one group {0,1,2}
	}
	c, _, err := Contract(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Items) != 2 {
		t.Fatalf("items = %+v", c.Items)
	}
}

func TestContractEquivalentToNativeGrouping(t *testing.T) {
	// The CP solver contracts SameSlot groups internally (it searches per
	// block), so the explicit Contract pre-pass must produce the same
	// search effort and cost; the pre-pass exists for the heuristic and
	// scale pipelines that consume contracted models directly.
	n := 24
	m := &model.Model{
		Name:       "speed",
		Items:      items(n),
		NumSlots:   6,
		RequireAll: true,
		Capacities: []model.Capacity{{Name: "g", Sets: [][]int{all(n)}, Cap: 6}},
	}
	for i := 0; i < n; i += 4 {
		m.SameSlot = append(m.SameSlot, []int{i, i + 1, i + 2, i + 3})
	}
	raw, err := solver.SolveContext(context.Background(), m, solver.Options{MaxNodes: 500_000, TimeLimit: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	c, expand, err := Contract(m)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := solver.SolveContext(context.Background(), c, solver.Options{MaxNodes: 500_000, TimeLimit: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	got := expand(cs)
	if v := m.Check(got.Slots); len(v) > 0 {
		t.Fatalf("violations: %v", v)
	}
	if cs.Nodes != raw.Nodes || got.Cost != raw.Cost {
		t.Fatalf("contract deviates from native grouping: %d/%d nodes, cost %d/%d",
			cs.Nodes, raw.Nodes, got.Cost, raw.Cost)
	}
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
	dec, err := SolveContext(context.Background(), m, SolveOptions{Contract: true, Split: true, Parallelism: 3})
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

func TestSolveContextWarmSeedThroughContract(t *testing.T) {
	m := &model.Model{
		Name:       "warmc",
		Items:      items(8),
		NumSlots:   4,
		RequireAll: true,
		SameSlot:   [][]int{{0, 1}, {2, 3}},
		Capacities: []model.Capacity{{Name: "g", Sets: [][]int{all(8)}, Cap: 3}},
	}
	opt := SolveOptions{Contract: true, Split: true}
	cold, err := SolveContext(context.Background(), m, opt)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Warm {
		t.Fatal("cold solve flagged Warm")
	}
	// Seed in the ORIGINAL item space: contraction must translate it to
	// the synthetic grp(...) items, not drop it.
	seed := map[string]int{}
	for i := range m.Items {
		seed[m.Items[i].ID] = cold.Slots[i]
	}
	wopt := opt
	wopt.Solver.WarmSlots = seed
	warm, err := SolveContext(context.Background(), m, wopt)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Warm {
		t.Fatal("seed did not survive contraction")
	}
	if warm.Cost != cold.Cost {
		t.Fatalf("warm cost %d != cold cost %d", warm.Cost, cold.Cost)
	}
	// A seed that splits a consistency group must leave that super-item
	// unseeded but still warm-start feasibly when leftovers are allowed.
	m2 := &model.Model{
		Name:     "warmc2",
		Items:    items(8),
		NumSlots: 4,
		SameSlot: [][]int{{0, 1}, {2, 3}},
	}
	cold2, err := SolveContext(context.Background(), m2, opt)
	if err != nil {
		t.Fatal(err)
	}
	seed2 := map[string]int{}
	for i := range m2.Items {
		seed2[m2.Items[i].ID] = cold2.Slots[i]
	}
	seed2["n000"] = (seed2["n001"] + 1) % 4 // disagree within group {0,1}
	wopt2 := opt
	wopt2.Solver.WarmSlots = seed2
	warm2, err := SolveContext(context.Background(), m2, wopt2)
	if err != nil {
		t.Fatal(err)
	}
	if !warm2.Warm {
		t.Fatal("partially-disagreeing seed rejected outright")
	}
}
