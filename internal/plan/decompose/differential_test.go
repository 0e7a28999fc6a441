package decompose

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"cornet/internal/plan/model"
	"cornet/internal/plan/solver"
)

// differentialModels is how many random models one run of the
// decomposed-equals-monolithic check solves both ways.
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
	m.Capacities = []model.Capacity{{Name: "part", Cap: 1 + rng.Intn(5), Sets: [][]int{all(n)[:cut], all(n)[cut:]}}}
	if rng.Intn(3) == 0 {
		m.Capacities = append(m.Capacities, model.Capacity{Name: "all", Cap: 2 + rng.Intn(6), Sets: [][]int{all(n)}})
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

// TestSolveContextMatchesMonolithic is the decomposed == monolithic
// differential: on random models, splitting into components must return
// the raw solver's error class and cost, and an answer that passes the
// model's own Check.
func TestSolveContextMatchesMonolithic(t *testing.T) {
	limits := solver.Options{Parallelism: 1, MaxNodes: 5_000_000, TimeLimit: time.Minute}
	feasible, split, straddle := 0, 0, 0
	for seed := int64(1); seed <= differentialModels; seed++ {
		m := differentialModel(rand.New(rand.NewSource(seed)))
		want, werr := solver.SolveContext(context.Background(), m, limits)
		got, gerr := SolveContext(context.Background(), m, SolveOptions{Solver: limits})
		if (gerr == nil) != (werr == nil) || errors.Is(gerr, solver.ErrInfeasible) != errors.Is(werr, solver.ErrInfeasible) {
			t.Fatalf("seed %d: decomposed err %v, monolithic err %v\n%+v", seed, gerr, werr, m)
		}
		if subs, _, err := Split(m); err == nil && len(subs) > 1 {
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
			t.Fatalf("seed %d: decomposed cost %d (optimal=%v), monolithic %d (optimal=%v)\n%+v",
				seed, got.Cost, got.Optimal, want.Cost, want.Optimal, m)
		}
		if v := m.Check(got.Slots); len(v) > 0 {
			t.Fatalf("seed %d: decomposed slots %v violate %v\n%+v", seed, got.Slots, v[0], m)
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
			s, err := SolveContext(context.Background(), c.m, SolveOptions{})
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
