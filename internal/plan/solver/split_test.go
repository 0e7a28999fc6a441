package solver

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"cornet/internal/plan/model"
)

// differentialModels is how many random models one run of the
// split-equals-whole check solves both ways.
const differentialModels = 2000

// differentialModel draws a model small enough to solve to optimality
// whose consistency classes are drawn over a shuffled item order, so they
// straddle the two sets of a partitioned capacity and the split has to
// keep them whole. A uniformity constraint, when drawn, gives the members
// of one class different values; a localize constraint, when drawn, has
// groups that are unions of whole classes. Members of a class share a
// duration: a block's uniformity and localize footprint spans its longest
// member, exact only when they agree.
func differentialModel(rng *rand.Rand) *model.Model {
	n := 3 + rng.Intn(6)
	T := 2 + rng.Intn(3)
	m := &model.Model{
		Name:       "diff",
		Items:      items(n),
		NumSlots:   T,
		RequireAll: rng.Intn(2) == 0,
	}
	var classes [][]int
	perm := rng.Perm(n)
	if rng.Intn(2) == 0 {
		slices.Sort(perm) // classes of neighbours: the cut may fall between them
	}
	for len(perm) > 0 {
		k := min(1+rng.Intn(3), len(perm))
		class := perm[:k:k]
		slices.Sort(class)
		perm = perm[k:]
		classes = append(classes, class)
		if k > 1 {
			m.SameSlot = append(m.SameSlot, class)
		}
		d := 1 + rng.Intn(min(2, T))
		for _, i := range class {
			m.Items[i].Weight = 1 + rng.Intn(3)
			m.Items[i].Duration = d
		}
	}
	cut := 1 + rng.Intn(n-1)
	m.Capacities = []model.Capacity{{Name: "part", Cap: 1 + rng.Intn(5), Sets: [][]int{r(n)[:cut], r(n)[cut:]}}}
	if rng.Intn(3) == 0 {
		m.Capacities = append(m.Capacities, model.Capacity{Name: "all", Cap: 2 + rng.Intn(6), Sets: [][]int{r(n)}})
	}
	if rng.Intn(3) == 0 {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(rng.Intn(5))
		}
		m.Uniform = []model.Uniform{{Name: "tz", Values: vals, MaxDist: float64(1 + rng.Intn(2))}}
	}
	if rng.Intn(3) == 0 {
		groups := make([][]int, 2)
		for _, class := range classes {
			g := rng.Intn(2)
			groups[g] = append(groups[g], class...)
		}
		if len(groups[0]) > 0 && len(groups[1]) > 0 {
			slices.Sort(groups[0])
			slices.Sort(groups[1])
			m.Localized = []model.Localized{{Name: "market", Groups: groups}}
		}
	}
	m.Forbidden = make([][]int, n)
	for i := range m.Forbidden {
		if rng.Intn(4) == 0 {
			m.Forbidden[i] = []int{rng.Intn(T)}
		}
	}
	m.Normalize()
	return m
}

// TestSolveContextMatchesMonolithic is the split == whole differential: on
// random models, splitting into components must return the whole-model
// search's error class and cost, and an answer that passes the model's
// own Check.
func TestSolveContextMatchesMonolithic(t *testing.T) {
	limits := Options{Parallelism: 1, MaxNodes: 5_000_000, TimeLimit: time.Minute}
	feasible, split, straddle := 0, 0, 0
	for seed := int64(1); seed <= differentialModels; seed++ {
		m := differentialModel(rand.New(rand.NewSource(seed)))
		want, werr := solveWhole(context.Background(), m, limits, time.Now().Add(limits.TimeLimit))
		got, gerr := SolveContext(context.Background(), m, limits)
		if (gerr == nil) != (werr == nil) || errors.Is(gerr, ErrInfeasible) != errors.Is(werr, ErrInfeasible) {
			t.Fatalf("seed %d: split err %v, whole err %v\n%+v", seed, gerr, werr, m)
		}
		if components(m) != nil {
			split++
		}
		cut := len(m.Capacities[0].Sets[0])
		for _, class := range m.SameSlot {
			if class[0] < cut && class[len(class)-1] >= cut {
				straddle++
				break
			}
		}
		if werr != nil {
			continue
		}
		feasible++
		if !want.Optimal || !got.Optimal || got.Cost != want.Cost {
			t.Fatalf("seed %d: split cost %d (optimal=%v), whole %d (optimal=%v)\n%+v",
				seed, got.Cost, got.Optimal, want.Cost, want.Optimal, m)
		}
		if v := m.Check(got.Slots); len(v) > 0 {
			t.Fatalf("seed %d: split slots %v violate %v\n%+v", seed, got.Slots, v[0], m)
		}
	}
	// The draw must keep exercising both answers and both pipeline shapes.
	if feasible < differentialModels/4 || feasible > differentialModels*9/10 {
		t.Fatalf("%d of %d models feasible: the generator no longer mixes feasible and infeasible", feasible, differentialModels)
	}
	if split < differentialModels/10 || split > differentialModels*9/10 {
		t.Fatalf("%d of %d models split: the generator no longer mixes one and several components", split, differentialModels)
	}
	if straddle < differentialModels/4 {
		t.Fatalf("%d of %d models have a class astride the partitioned capacity", straddle, differentialModels)
	}
}

// TestSolveContextConsistencyCases pins two models on which consistency
// groups merged into weighted super-items before the solve gave wrong
// answers: averaged uniformity values put a group of tz 0 and 4 into one
// slot under a max spread of 2, and a group's full weight charged against
// a capacity set holding only one member made a feasible model infeasible.
func TestSolveContextConsistencyCases(t *testing.T) {
	cases := []struct {
		name  string
		m     *model.Model
		slots []int
		cost  int64
	}{
		{"uniformity values differ inside a class", &model.Model{
			Items:    items(3),
			NumSlots: 2,
			SameSlot: [][]int{{0, 1}},
			Uniform:  []model.Uniform{{Name: "tz", Values: []float64{0, 4, 2}, MaxDist: 2}},
		}, []int{-1, -1, 0}, 13},
		{"class straddles a capacity set", &model.Model{
			Items:      items(3),
			NumSlots:   2,
			RequireAll: true,
			SameSlot:   [][]int{{0, 1}},
			Capacities: []model.Capacity{{Name: "c", Sets: [][]int{{0, 2}}, Cap: 1}},
		}, []int{0, 0, 1}, 4},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, err := SolveContext(context.Background(), c.m, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if v := c.m.Check(s.Slots); len(v) > 0 {
				t.Fatalf("slots %v violate %v", s.Slots, v[0])
			}
			if !reflect.DeepEqual(s.Slots, c.slots) || s.Cost != c.cost {
				t.Fatalf("slots %v cost %d, want %v cost %d", s.Slots, s.Cost, c.slots, c.cost)
			}
		})
	}
}

// poolsModel is n items in pools of size pool, one slot per pool at a
// time, and no constraint across pools: one component per pool.
func poolsModel(n, pool, slots int) *model.Model {
	m := &model.Model{Name: "pools", Items: items(n), NumSlots: slots, RequireAll: true}
	var sets [][]int
	for lo := 0; lo < n; lo += pool {
		sets = append(sets, r(n)[lo:min(lo+pool, n)])
	}
	m.Capacities = []model.Capacity{{Name: "per-pool", Sets: sets, Cap: 1}}
	return m
}

func TestSplitCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := SolveContext(ctx, poolsModel(8, 4, 4), Options{})
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
	_, err := SolveContext(context.Background(), m, Options{})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want wrapped ErrInfeasible", err)
	}
	if !strings.Contains(err.Error(), "solver: component") {
		t.Fatalf("err = %v, want component identity in message", err)
	}
}

func TestSplitErrorIsWorkerInvariant(t *testing.T) {
	// Pool 0 fits its window, pools 1 and 2 cannot: whichever finishes
	// first, the lowest failing component is the one reported.
	m := poolsModel(13, 5, 4)
	m.Capacities[0].Sets = [][]int{{0, 1, 2}, {3, 4, 5, 6, 7}, {8, 9, 10, 11, 12}}
	want := componentError{1, ErrInfeasible}
	for _, workers := range []int{1, 2, 4, 8} {
		for range 20 {
			_, err := SolveContext(context.Background(), m, Options{Parallelism: workers})
			if !errors.Is(err, want) || err.Error() != want.Error() {
				t.Fatalf("workers=%d: err = %v, want %v", workers, err, want)
			}
		}
	}
}

func TestSplitIndependentPools(t *testing.T) {
	// Two pools with per-pool capacities and no global constraint: two
	// independent components.
	m := poolsModel(8, 4, 4)
	comps := components(m)
	if len(comps) != 2 {
		t.Fatalf("components = %d", len(comps))
	}
	if len(comps[0]) != 4 || len(comps[1]) != 4 {
		t.Fatalf("components = %v", comps)
	}
	for _, sub := range subModels(m, comps) {
		if len(sub.Capacities) != 1 || len(sub.Capacities[0].Sets) != 1 {
			t.Fatalf("sub capacities = %+v", sub.Capacities)
		}
	}
}

func TestSplitGlobalConstraintSingleComponent(t *testing.T) {
	m := &model.Model{
		Items:      items(6),
		NumSlots:   3,
		Capacities: []model.Capacity{{Name: "g", Sets: [][]int{r(6)}, Cap: 2}},
	}
	if comps := components(m); comps != nil {
		t.Fatalf("components = %v", comps)
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
	if comps := components(m2); comps != nil {
		t.Fatalf("uniform model split into %v", comps)
	}
}

func TestSolvePipelineMatchesDirect(t *testing.T) {
	// The split solve must be feasible and no worse than the whole-model
	// search on separable problems.
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
	m.Normalize()
	direct, err := solveWhole(context.Background(), m, Options{}.withDefaults(), time.Now().Add(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	dec, err := SolveContext(context.Background(), m, Options{Parallelism: 3})
	if err != nil {
		t.Fatal(err)
	}
	if v := m.Check(dec.Slots); len(v) > 0 {
		t.Fatalf("violations: %v", v)
	}
	if dec.Cost > direct.Cost {
		t.Fatalf("split cost %d > direct %d", dec.Cost, direct.Cost)
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
		Capacities: []model.Capacity{{Name: "g", Sets: [][]int{r(4)}, Cap: 2}},
	}
	s, err := SolveContext(context.Background(), m, Options{})
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
		Capacities: []model.Capacity{{Name: "g", Sets: [][]int{r(8)}, Cap: 3}},
	}
	cold, err := SolveContext(context.Background(), m, Options{})
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
	opt := Options{WarmSlots: seed}
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
		Capacities: []model.Capacity{{Name: "g", Sets: [][]int{r(n)}, Cap: 4}},
	}
	for i := 0; i < n; i += 4 {
		grouped.SameSlot = append(grouped.SameSlot, []int{i, i + 1, i + 2, i + 3})
	}
	ungrouped := &model.Model{
		Name:       "ungrouped",
		Items:      items(n),
		NumSlots:   8,
		RequireAll: true,
		Capacities: []model.Capacity{{Name: "g", Sets: [][]int{r(n)}, Cap: 4}},
	}
	g, err := SolveContext(context.Background(), grouped, Options{MaxNodes: 500_000, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	u, err := SolveContext(context.Background(), ungrouped, Options{MaxNodes: 500_000, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if g.Nodes >= u.Nodes {
		t.Fatalf("consistency grouping did not shrink search: %d vs %d nodes", g.Nodes, u.Nodes)
	}
}

// BenchmarkSplit measures solving a separable model by component against
// one whole-model search: eight pools of eight items, one per slot each.
func BenchmarkSplit(b *testing.B) {
	for _, split := range []bool{false, true} {
		name := "whole"
		if split {
			name = "split"
		}
		b.Run(name, func(b *testing.B) {
			m := poolsModel(64, 8, 8)
			m.Normalize()
			opt := Options{MaxNodes: 500_000}.withDefaults()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if split {
					_, err = SolveContext(context.Background(), m, opt)
				} else {
					_, err = solveWhole(context.Background(), m, opt, time.Now().Add(opt.TimeLimit))
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
