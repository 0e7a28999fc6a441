package model

import (
	"math/rand"
	"testing"
)

// canonBase builds a reference model exercising every constraint family.
func canonBase() *Model {
	return &Model{
		Name:     "canon",
		NumSlots: 10,
		Items: []Item{
			{ID: "a", Weight: 1, Duration: 1},
			{ID: "b", Weight: 2, Duration: 2},
			{ID: "c", Weight: 1, Duration: 1},
			{ID: "d", Weight: 3, Duration: 1},
		},
		Capacities: []Capacity{
			{Name: "global", Sets: [][]int{{0, 1, 2, 3}}, Cap: 3},
			{Name: "markets", Sets: [][]int{{0, 1}, {2, 3}}, Cap: 2, BucketSlots: 2},
		},
		GroupCounts: []GroupCount{{Name: "ems", Groups: [][]int{{0, 2}, {1, 3}}, Cap: 1}},
		SameSlot:    [][]int{{0, 2}},
		Uniform:     []Uniform{{Name: "tz", Values: []float64{0, 1, 0, 2}, MaxDist: 1}},
		Localized:   []Localized{{Name: "mkt", Groups: [][]int{{0, 1}, {2, 3}}}},
		Forbidden:   [][]int{{3, 1}, nil, nil, {5}},
		ConflictSlots: [][]int{
			nil, {2}, nil, nil,
		},
	}
}

func TestFingerprintPermutationInvariant(t *testing.T) {
	base := canonBase()

	// Same model with items in a different order (indices remapped), the
	// capacity/group/localize sets permuted, constraint lists reordered,
	// and slot lists unsorted.
	perm := &Model{
		Name:     "canon",
		NumSlots: 10,
		// order d, b, a, c  (old index -> new: 0->2, 1->1, 2->3, 3->0)
		Items: []Item{
			{ID: "d", Weight: 3, Duration: 1},
			{ID: "b", Weight: 2, Duration: 2},
			{ID: "a", Weight: 1, Duration: 1},
			{ID: "c", Weight: 1, Duration: 1},
		},
		Capacities: []Capacity{
			{Name: "renamed-markets", Sets: [][]int{{0, 3}, {1, 2}}, Cap: 2, BucketSlots: 2},
			{Name: "renamed-global", Sets: [][]int{{3, 0, 1, 2}}, Cap: 3},
		},
		GroupCounts: []GroupCount{{Name: "ems2", Groups: [][]int{{1, 0}, {3, 2}}, Cap: 1}},
		SameSlot:    [][]int{{3, 2}},
		Uniform:     []Uniform{{Name: "tz2", Values: []float64{2, 1, 0, 0}, MaxDist: 1}},
		Localized:   []Localized{{Name: "mkt2", Groups: [][]int{{0, 3}, {2, 1}}}},
		Forbidden:   [][]int{{5}, nil, {1, 3}, nil},
		ConflictSlots: [][]int{
			nil, {2}, nil, nil,
		},
	}

	if got, want := perm.Fingerprint(), base.Fingerprint(); got != want {
		t.Fatalf("permuted model fingerprint differs:\n  base = %s\n  perm = %s", want, got)
	}
	if got, want := perm.FamilyKey(), base.FamilyKey(); got != want {
		t.Fatalf("permuted model family differs: %q vs %q", got, want)
	}

	// The same on random models, every order shuffled at once: the items,
	// the constraints of each family, the sets inside a constraint, the
	// members inside a set, the slots of a slot list.
	rng := rand.New(rand.NewSource(22))
	for k := 0; k < 500; k++ {
		m := randomCanonModel(rng)
		p := permuted(rng, m)
		if got, want := p.Fingerprint(), m.Fingerprint(); got != want {
			t.Fatalf("model %d: permuted fingerprint %s, original %s\n%+v\n%+v", k, got, want, m, p)
		}
		got, want := p.ItemSignatures(), m.ItemSignatures()
		for id, sig := range want {
			if got[id] != sig {
				t.Fatalf("model %d: item %q signature moved with the permutation", k, id)
			}
		}
	}
}

// permuted returns m with its items renumbered at random and every list
// whose order carries no meaning shuffled.
func permuted(rng *rand.Rand, m *Model) *Model {
	n := len(m.Items)
	at := rng.Perm(n) // at[i]: item i's new index
	p := *m
	p.Items = make([]Item, n)
	for i, it := range m.Items {
		p.Items[at[i]] = it
	}
	set := func(s []int) []int {
		out := make([]int, len(s))
		for k, j := range rng.Perm(len(s)) {
			out[k] = at[s[j]]
		}
		return out
	}
	sets := func(ss [][]int) [][]int {
		out := make([][]int, len(ss))
		for k, j := range rng.Perm(len(ss)) {
			out[k] = set(ss[j])
		}
		return out
	}
	// An item past the end of a per-item list reads as its zero value.
	slots := func(ls [][]int) [][]int {
		if ls == nil {
			return nil
		}
		out := make([][]int, n)
		for i, l := range ls {
			for _, j := range rng.Perm(len(l)) {
				out[at[i]] = append(out[at[i]], l[j])
			}
		}
		return out
	}
	p.Forbidden, p.ConflictSlots = slots(m.Forbidden), slots(m.ConflictSlots)
	p.SameSlot = sets(m.SameSlot)
	p.Capacities = make([]Capacity, len(m.Capacities))
	for k, j := range rng.Perm(len(m.Capacities)) {
		p.Capacities[k] = m.Capacities[j]
		p.Capacities[k].Sets = sets(m.Capacities[j].Sets)
	}
	p.GroupCounts = make([]GroupCount, len(m.GroupCounts))
	for k, j := range rng.Perm(len(m.GroupCounts)) {
		p.GroupCounts[k] = m.GroupCounts[j]
		p.GroupCounts[k].Groups = sets(m.GroupCounts[j].Groups)
	}
	p.Localized = make([]Localized, len(m.Localized))
	for k, j := range rng.Perm(len(m.Localized)) {
		p.Localized[k] = Localized{Groups: sets(m.Localized[j].Groups)}
	}
	p.Uniform = make([]Uniform, len(m.Uniform))
	for k, j := range rng.Perm(len(m.Uniform)) {
		u := Uniform{MaxDist: m.Uniform[j].MaxDist, Values: make([]float64, n)}
		for i, v := range m.Uniform[j].Values {
			u.Values[at[i]] = v
		}
		p.Uniform[k] = u
	}
	return &p
}

func TestFingerprintNormalizeInvariant(t *testing.T) {
	a, b := canonBase(), canonBase()
	b.Normalize() // fills SkipPenalty/BigM defaults, sorts slot lists
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("Normalize changed the fingerprint")
	}
}

func TestFingerprintSemanticChanges(t *testing.T) {
	base := canonBase().Fingerprint()
	mutations := map[string]func(*Model){
		"item duration":    func(m *Model) { m.Items[1].Duration = 3 },
		"item weight":      func(m *Model) { m.Items[0].Weight = 5 },
		"capacity value":   func(m *Model) { m.Capacities[0].Cap = 4 },
		"capacity bucket":  func(m *Model) { m.Capacities[1].BucketSlots = 3 },
		"capacity set":     func(m *Model) { m.Capacities[1].Sets[0] = []int{0} },
		"group-count cap":  func(m *Model) { m.GroupCounts[0].Cap = 2 },
		"forbidden slot":   func(m *Model) { m.Forbidden[0] = []int{3, 1, 7} },
		"conflict slot":    func(m *Model) { m.ConflictSlots[1] = []int{2, 4} },
		"zero conflict":    func(m *Model) { m.ZeroConflict = true },
		"window length":    func(m *Model) { m.NumSlots = 12 },
		"require all":      func(m *Model) { m.RequireAll = true },
		"uniform distance": func(m *Model) { m.Uniform[0].MaxDist = 2 },
		"uniform value":    func(m *Model) { m.Uniform[0].Values[3] = 9 },
		"localize group":   func(m *Model) { m.Localized[0].Groups[0] = []int{0} },
		"same-slot group":  func(m *Model) { m.SameSlot[0] = []int{0, 3} },
		"added item": func(m *Model) {
			m.Items = append(m.Items, Item{ID: "e", Weight: 1})
			m.Uniform[0].Values = append(m.Uniform[0].Values, 0)
		},
		"renamed item":       func(m *Model) { m.Items[2].ID = "c2" },
		"skip penalty":       func(m *Model) { m.SkipPenalty = 99 },
		"conflict big-m":     func(m *Model) { m.BigM = 1234 },
		"dropped constraint": func(m *Model) { m.GroupCounts = nil },
	}
	for name, mutate := range mutations {
		m := canonBase()
		mutate(m)
		if m.Fingerprint() == base {
			t.Errorf("%s: fingerprint unchanged after semantic mutation", name)
		}
	}
}

func TestItemSignatures(t *testing.T) {
	a, b := canonBase(), canonBase()
	b.Items[1].Duration = 3      // change b
	b.Forbidden[3] = []int{5, 6} // change d
	sa, sb := a.ItemSignatures(), b.ItemSignatures()
	if len(sa) != 4 || len(sb) != 4 {
		t.Fatalf("signature counts = %d, %d", len(sa), len(sb))
	}
	changed := 0
	for id, s := range sa {
		if sb[id] != s {
			changed++
		}
	}
	if changed != 2 {
		t.Fatalf("changed signatures = %d, want 2 (items b and d)", changed)
	}
	if sa["a"] != sb["a"] || sa["c"] != sb["c"] {
		t.Fatal("untouched items changed signature")
	}
}
