package decompose

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"cornet/internal/plan/model"
)

// oracleContract is contract as it stood when it grouped through maps: the
// reference the differential test below holds the current one to.
func oracleContract(m *model.Model) (*model.Model, []int, error) {
	m.Normalize()
	if err := m.Validate(); err != nil {
		return nil, nil, err
	}
	n := len(m.Items)
	// Union-find over overlapping consistency groups.
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[rb] = ra
		}
	}
	for _, grp := range m.SameSlot {
		for i := 1; i < len(grp); i++ {
			union(grp[0], grp[i])
		}
	}
	// Super-item per root, ordered by smallest member for determinism.
	rootMembers := map[int][]int{}
	for i := 0; i < n; i++ {
		r := find(i)
		rootMembers[r] = append(rootMembers[r], i)
	}
	roots := make([]int, 0, len(rootMembers))
	for r := range rootMembers {
		roots = append(roots, r)
	}
	sort.Slice(roots, func(i, j int) bool {
		return rootMembers[roots[i]][0] < rootMembers[roots[j]][0]
	})
	super := make([]int, n) // item -> super index
	c := &model.Model{
		Name:         m.Name + "-contracted",
		NumSlots:     m.NumSlots,
		RequireAll:   m.RequireAll,
		SkipPenalty:  m.SkipPenalty,
		ZeroConflict: m.ZeroConflict,
		BigM:         m.BigM,
	}
	for si, r := range roots {
		members := rootMembers[r]
		w, d := 0, 1
		for _, i := range members {
			super[i] = si
			w += m.Weight(i)
			if md := m.Duration(i); md > d {
				d = md
			}
		}
		id := m.Items[members[0]].ID
		if len(members) > 1 {
			id = fmt.Sprintf("grp(%s+%d)", id, len(members)-1)
		}
		c.Items = append(c.Items, model.Item{ID: id, Weight: w, Duration: d})
	}
	ns := len(c.Items)

	mapSet := func(set []int) []int {
		seen := map[int]bool{}
		var out []int
		for _, i := range set {
			if s := super[i]; !seen[s] {
				seen[s] = true
				out = append(out, s)
			}
		}
		sort.Ints(out)
		return out
	}
	for _, cap := range m.Capacities {
		// NOTE: contraction of capacity sets must preserve the weight a
		// super-item contributes per set: if only part of a consistency
		// group belongs to a capacity set, the contracted item's full
		// weight would overcount. We keep correctness by over-approximating
		// (the super-item's full weight counts), which only makes schedules
		// more conservative — the paper's union-repair philosophy (§5.3).
		nc := model.Capacity{Name: cap.Name, Cap: cap.Cap, BucketSlots: cap.BucketSlots}
		for _, set := range cap.Sets {
			nc.Sets = append(nc.Sets, mapSet(set))
		}
		c.Capacities = append(c.Capacities, nc)
	}
	for _, g := range m.GroupCounts {
		ng := model.GroupCount{Name: g.Name, Cap: g.Cap}
		for _, grp := range g.Groups {
			ng.Groups = append(ng.Groups, mapSet(grp))
		}
		c.GroupCounts = append(c.GroupCounts, ng)
	}
	for _, u := range m.Uniform {
		vals := make([]float64, ns)
		cnt := make([]int, ns)
		for i := 0; i < n; i++ {
			vals[super[i]] += u.Values[i]
			cnt[super[i]]++
		}
		for s := range vals {
			vals[s] /= float64(cnt[s])
		}
		c.Uniform = append(c.Uniform, model.Uniform{Name: u.Name, Values: vals, MaxDist: u.MaxDist})
	}
	for _, l := range m.Localized {
		nl := model.Localized{Name: l.Name}
		for _, grp := range l.Groups {
			nl.Groups = append(nl.Groups, mapSet(grp))
		}
		c.Localized = append(c.Localized, nl)
	}
	c.Forbidden = make([][]int, ns)
	c.ConflictSlots = make([][]int, ns)
	forb := make([]map[int]bool, ns)
	confl := make([]map[int]int, ns)
	for i := 0; i < n; i++ {
		s := super[i]
		if i < len(m.Forbidden) {
			for _, t := range m.Forbidden[i] {
				if forb[s] == nil {
					forb[s] = map[int]bool{}
				}
				forb[s][t] = true
			}
		}
		if i < len(m.ConflictSlots) {
			for _, t := range m.ConflictSlots[i] {
				if confl[s] == nil {
					confl[s] = map[int]int{}
				}
				confl[s][t]++
			}
		}
	}
	for s := 0; s < ns; s++ {
		for t := range forb[s] {
			c.Forbidden[s] = append(c.Forbidden[s], t)
		}
		for t := range confl[s] {
			c.ConflictSlots[s] = append(c.ConflictSlots[s], t)
		}
		sort.Ints(c.Forbidden[s])
		sort.Ints(c.ConflictSlots[s])
	}
	c.Normalize()
	return c, super, nil
}

// randomContractModel draws a valid model with overlapping and repeated
// SameSlot groups, capacity sets that repeat members, and slot lists that
// collide inside a group.
func randomContractModel(rng *rand.Rand) *model.Model {
	n := 1 + rng.Intn(12)
	m := &model.Model{Name: "rand", NumSlots: 3 + rng.Intn(6), RequireAll: rng.Intn(2) == 0, ZeroConflict: rng.Intn(2) == 0}
	for i := 0; i < n; i++ {
		m.Items = append(m.Items, model.Item{ID: fmt.Sprint("i", i), Weight: rng.Intn(4), Duration: rng.Intn(3)})
	}
	set := func() []int {
		out := make([]int, 1+rng.Intn(n))
		for k := range out {
			out[k] = rng.Intn(n)
		}
		return out
	}
	sets := func() [][]int {
		out := make([][]int, rng.Intn(4))
		for k := range out {
			out[k] = set()
		}
		return out
	}
	slots := func() [][]int {
		out := make([][]int, n)
		for i := range out {
			for k := rng.Intn(3); k > 0; k-- {
				out[i] = append(out[i], rng.Intn(m.NumSlots))
			}
		}
		return out
	}
	for k := rng.Intn(4); k > 0; k-- {
		m.SameSlot = append(m.SameSlot, set())
	}
	for k := rng.Intn(3); k > 0; k-- {
		m.Capacities = append(m.Capacities, model.Capacity{Name: fmt.Sprint("c", k), Sets: sets(), Cap: rng.Intn(20), BucketSlots: rng.Intn(3)})
	}
	for k := rng.Intn(3); k > 0; k-- {
		m.GroupCounts = append(m.GroupCounts, model.GroupCount{Name: fmt.Sprint("g", k), Groups: sets(), Cap: rng.Intn(4)})
	}
	for k := rng.Intn(3); k > 0; k-- {
		m.Localized = append(m.Localized, model.Localized{Name: fmt.Sprint("l", k), Groups: sets()})
	}
	for k := rng.Intn(3); k > 0; k-- {
		u := model.Uniform{Name: fmt.Sprint("u", k), MaxDist: float64(rng.Intn(3)), Values: make([]float64, n)}
		for i := range u.Values {
			u.Values[i] = float64(rng.Intn(5))
		}
		m.Uniform = append(m.Uniform, u)
	}
	if rng.Intn(2) == 0 {
		m.Forbidden = slots()
	}
	if rng.Intn(2) == 0 {
		m.ConflictSlots = slots()
	}
	return m
}

// TestContractMatchesOracle compares the contracted model and the
// item -> super-item mapping, field for field, on random models.
func TestContractMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	// An empty list is nil from one implementation and zero-length from
	// the other; nothing downstream can tell them apart.
	var norm func(v reflect.Value)
	norm = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Ptr:
			norm(v.Elem())
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				norm(v.Field(i))
			}
		case reflect.Slice:
			if v.Len() == 0 {
				v.Set(reflect.Zero(v.Type()))
			}
			for i := 0; i < v.Len(); i++ {
				norm(v.Index(i))
			}
		}
	}
	for k := 0; k < 2000; k++ {
		m := randomContractModel(rng)
		want, wantSuper, err := oracleContract(m)
		if err != nil {
			t.Fatalf("model %d: oracle: %v", k, err)
		}
		got, _, gotSuper, err := contract(m)
		if err != nil {
			t.Fatalf("model %d: %v", k, err)
		}
		norm(reflect.ValueOf(want))
		norm(reflect.ValueOf(got))
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotSuper, wantSuper) {
			t.Fatalf("model %d:\n got  %+v %v\n want %+v %v\n from %+v", k, got, gotSuper, want, wantSuper, m)
		}
	}
}
