package solver

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"cornet/internal/plan/model"
)

func items(n int) []model.Item {
	out := make([]model.Item, n)
	for i := range out {
		out[i] = model.Item{ID: fmt.Sprintf("n%03d", i)}
	}
	return out
}

func TestSolveGlobalCapacity(t *testing.T) {
	m := &model.Model{
		Name:       "cap",
		Items:      items(6),
		NumSlots:   3,
		RequireAll: true,
		Capacities: []model.Capacity{{Name: "g", Sets: [][]int{{0, 1, 2, 3, 4, 5}}, Cap: 2}},
	}
	s, err := SolveContext(context.Background(), m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Optimal {
		t.Fatal("small model not solved to optimality")
	}
	if s.Makespan != 3 {
		t.Fatalf("makespan = %d, want 3", s.Makespan)
	}
	if s.Unscheduled != 0 || s.Conflicts != 0 {
		t.Fatalf("schedule = %+v", s)
	}
}

func TestSolveLeftoversWhenInfeasibleToFit(t *testing.T) {
	// 5 items, 1 slot, cap 3, leftovers allowed: 2 unscheduled.
	m := &model.Model{
		Name:       "leftover",
		Items:      items(5),
		NumSlots:   1,
		Capacities: []model.Capacity{{Name: "g", Sets: [][]int{{0, 1, 2, 3, 4}}, Cap: 3}},
	}
	s, err := SolveContext(context.Background(), m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Unscheduled != 2 {
		t.Fatalf("unscheduled = %d", s.Unscheduled)
	}
}

func TestSolveInfeasibleRequireAll(t *testing.T) {
	m := &model.Model{
		Name:       "infeasible",
		Items:      items(5),
		NumSlots:   1,
		RequireAll: true,
		Capacities: []model.Capacity{{Name: "g", Sets: [][]int{{0, 1, 2, 3, 4}}, Cap: 3}},
	}
	if _, err := SolveContext(context.Background(), m, Options{}); err != ErrInfeasible {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestSolveZeroConflictAvoidsCollisions(t *testing.T) {
	m := &model.Model{
		Name:          "zc",
		Items:         items(3),
		NumSlots:      3,
		RequireAll:    true,
		ZeroConflict:  true,
		ConflictSlots: [][]int{{0}, {0, 1}, nil},
		Capacities:    []model.Capacity{{Name: "g", Sets: [][]int{{0, 1, 2}}, Cap: 1}},
	}
	s, err := SolveContext(context.Background(), m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Conflicts != 0 {
		t.Fatalf("conflicts = %d", s.Conflicts)
	}
	if s.Slots[1] != 2 { // item 1 can only use slot 2
		t.Fatalf("slots = %v", s.Slots)
	}
}

func TestSolveMinimizeConflictsPrefersCleanSlots(t *testing.T) {
	// One item, conflicts on slots 0 and 1; minimize-conflicts should pay
	// the later-slot cost instead of the BigM conflict.
	m := &model.Model{
		Name:          "minconf",
		Items:         items(1),
		NumSlots:      3,
		RequireAll:    true,
		ConflictSlots: [][]int{{0, 1}},
	}
	s, err := SolveContext(context.Background(), m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Slots[0] != 2 || s.Conflicts != 0 {
		t.Fatalf("schedule = %+v", s)
	}
	// With a single slot the solver must accept the conflict.
	m2 := &model.Model{
		Name:          "mustconflict",
		Items:         items(1),
		NumSlots:      1,
		RequireAll:    true,
		ConflictSlots: [][]int{{0}},
	}
	s2, err := SolveContext(context.Background(), m2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Conflicts != 1 {
		t.Fatalf("conflicts = %d", s2.Conflicts)
	}
}

func TestSolveConsistencyGroups(t *testing.T) {
	// eNodeB/gNodeB pairs must share a slot (5G co-location, §3.3.1).
	m := &model.Model{
		Name:       "consistency",
		Items:      items(6),
		NumSlots:   3,
		RequireAll: true,
		SameSlot:   [][]int{{0, 1}, {2, 3}},
		Capacities: []model.Capacity{{Name: "g", Sets: [][]int{{0, 1, 2, 3, 4, 5}}, Cap: 2}},
	}
	s, err := SolveContext(context.Background(), m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Slots[0] != s.Slots[1] || s.Slots[2] != s.Slots[3] {
		t.Fatalf("consistency broken: %v", s.Slots)
	}
}

func TestSolveUniformityTimezones(t *testing.T) {
	// Four items across timezones -5,-5,-8,-8 with max distance 1 and one
	// slot capacity 4: they cannot share a slot.
	m := &model.Model{
		Name:       "uniform",
		Items:      items(4),
		NumSlots:   2,
		RequireAll: true,
		Uniform:    []model.Uniform{{Name: "tz", Values: []float64{-5, -5, -8, -8}, MaxDist: 1}},
		Capacities: []model.Capacity{{Name: "g", Sets: [][]int{{0, 1, 2, 3}}, Cap: 4}},
	}
	s, err := SolveContext(context.Background(), m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Slots[0] == s.Slots[2] || s.Slots[1] == s.Slots[3] {
		t.Fatalf("timezone mix: %v", s.Slots)
	}
}

func TestSolveGroupCountCap(t *testing.T) {
	// 4 items in 4 markets, at most 2 markets per slot, global cap 4:
	// 2 slots of 2 markets each is optimal.
	m := &model.Model{
		Name:       "gc",
		Items:      items(4),
		NumSlots:   4,
		RequireAll: true,
		GroupCounts: []model.GroupCount{
			{Name: "market", Groups: [][]int{{0}, {1}, {2}, {3}}, Cap: 2},
		},
	}
	s, err := SolveContext(context.Background(), m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	perSlot := map[int]int{}
	for _, t := range s.Slots {
		perSlot[t]++
	}
	for slot, n := range perSlot {
		if n > 2 {
			t.Fatalf("slot %d holds %d markets", slot, n)
		}
	}
	if s.Makespan != 2 {
		t.Fatalf("makespan = %d, want 2", s.Makespan)
	}
}

func TestSolveLocalizeNoInterleave(t *testing.T) {
	// Two markets of 2 items each, capacity 1 per slot: each market's two
	// items must occupy adjacent-range slots without interleaving.
	m := &model.Model{
		Name:       "localize",
		Items:      items(4),
		NumSlots:   4,
		RequireAll: true,
		Localized:  []model.Localized{{Name: "market", Groups: [][]int{{0, 1}, {2, 3}}}},
		Capacities: []model.Capacity{{Name: "g", Sets: [][]int{{0, 1, 2, 3}}, Cap: 1}},
	}
	s, err := SolveContext(context.Background(), m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v := m.Check(s.Slots); len(v) > 0 {
		t.Fatalf("violations: %v", v)
	}
	// Market ranges must not strictly overlap.
	lo1, hi1 := minmax(s.Slots[0], s.Slots[1])
	lo2, hi2 := minmax(s.Slots[2], s.Slots[3])
	if lo1 < hi2 && lo2 < hi1 {
		t.Fatalf("interleaved: %v", s.Slots)
	}
}

func minmax(a, b int) (int, int) {
	if a < b {
		return a, b
	}
	return b, a
}

func TestSolveForbiddenAndFrozen(t *testing.T) {
	m := &model.Model{
		Name:       "frozen",
		Items:      items(2),
		NumSlots:   2,
		RequireAll: true,
		Forbidden:  [][]int{{0}, nil},
		Capacities: []model.Capacity{{Name: "g", Sets: [][]int{{0, 1}}, Cap: 1}},
	}
	s, err := SolveContext(context.Background(), m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Slots[0] != 1 || s.Slots[1] != 0 {
		t.Fatalf("slots = %v", s.Slots)
	}
}

func TestSolveWeightedCapacity(t *testing.T) {
	// An item of weight 3 plus singletons, cap 3 per slot.
	m := &model.Model{
		Name: "weighted",
		Items: []model.Item{
			{ID: "grp", Weight: 3}, {ID: "a"}, {ID: "b"}, {ID: "c"},
		},
		NumSlots:   2,
		RequireAll: true,
		Capacities: []model.Capacity{{Name: "g", Sets: [][]int{{0, 1, 2, 3}}, Cap: 3}},
	}
	s, err := SolveContext(context.Background(), m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v := m.Check(s.Slots); len(v) > 0 {
		t.Fatalf("violations: %v", v)
	}
	// grp alone fills one slot; the three singletons the other.
	if s.Slots[1] == s.Slots[0] || s.Slots[2] == s.Slots[0] || s.Slots[3] == s.Slots[0] {
		t.Fatalf("weighted capacity violated: %v", s.Slots)
	}
}

func TestSolvePerAggregateCapacity(t *testing.T) {
	// Listing 1's third constraint: <= 1 per pool per slot.
	m := &model.Model{
		Name:       "peragg",
		Items:      items(4),
		NumSlots:   2,
		RequireAll: true,
		Capacities: []model.Capacity{
			{Name: "per-pool", Sets: [][]int{{0, 1}, {2, 3}}, Cap: 1},
		},
	}
	s, err := SolveContext(context.Background(), m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Slots[0] == s.Slots[1] || s.Slots[2] == s.Slots[3] {
		t.Fatalf("per-pool capacity violated: %v", s.Slots)
	}
}

func TestSolveRespectsLimits(t *testing.T) {
	m := hardModel() // 30 items; TestHardModelStaysHard keeps it unfinishable
	s, err := SolveContext(context.Background(), m, Options{MaxNodes: 500})
	if err != nil {
		t.Fatal(err)
	}
	if s.Optimal {
		t.Fatal("claimed optimality under a 500-node cap")
	}
	if v := m.Check(s.Slots); len(v) > 0 {
		t.Fatalf("violations: %v", v)
	}
	// Time limit path.
	s2, err := SolveContext(context.Background(), m, Options{TimeLimit: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if len(s2.Slots) != 30 {
		t.Fatal("no incumbent under time limit")
	}
}

func r(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestSolveFirstSolutionOnly(t *testing.T) {
	m := &model.Model{
		Name:       "first",
		Items:      items(20),
		NumSlots:   5,
		RequireAll: true,
		Capacities: []model.Capacity{{Name: "g", Sets: [][]int{r(20)}, Cap: 4}},
	}
	s, err := SolveContext(context.Background(), m, Options{FirstSolutionOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if v := m.Check(s.Slots); len(v) > 0 {
		t.Fatalf("violations: %v", v)
	}
	if s.Unscheduled != 0 {
		t.Fatalf("unscheduled = %d", s.Unscheduled)
	}
}

// Property: on random feasible models, the solver's schedule passes
// model.Check and schedules everything when capacity suffices.
func TestSolveRandomModelsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(10)
		slots := 3 + rng.Intn(3)
		cap := 2 + rng.Intn(3)
		if cap*slots < n {
			cap = (n + slots - 1) / slots // ensure feasibility
		}
		m := &model.Model{
			Name:       "rand",
			Items:      items(n),
			NumSlots:   slots,
			RequireAll: true,
			Capacities: []model.Capacity{{Name: "g", Sets: [][]int{r(n)}, Cap: cap}},
		}
		// Random conflict slots under minimize mode.
		m.ConflictSlots = make([][]int, n)
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				m.ConflictSlots[i] = []int{rng.Intn(slots)}
			}
		}
		s, err := SolveContext(context.Background(), m, Options{MaxNodes: 200_000, TimeLimit: 5 * time.Second})
		if err != nil {
			return false
		}
		return len(m.Check(s.Slots)) == 0 && s.Unscheduled == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: minimize-conflicts never reports more conflicts than the
// trivially available conflict-free capacity allows; i.e. if a
// conflict-free schedule exists, the solver finds zero conflicts (BigM
// lexicographic priority).
func TestSolveLexicographicConflictPriority(t *testing.T) {
	m := &model.Model{
		Name:       "lex",
		Items:      items(3),
		NumSlots:   3,
		RequireAll: true,
		// Every item conflicts in slot 0; slots 1 and 2 are clean with
		// enough capacity.
		ConflictSlots: [][]int{{0}, {0}, {0}},
		Capacities:    []model.Capacity{{Name: "g", Sets: [][]int{{0, 1, 2}}, Cap: 2}},
	}
	s, err := SolveContext(context.Background(), m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Conflicts != 0 {
		t.Fatalf("conflicts = %d; BigM priority violated", s.Conflicts)
	}
}

func TestSolveWeeklyBucketCapacity(t *testing.T) {
	// 6 items, 14 daily slots, weekly budget of 3: at most 3 in days 0-6
	// and 3 in days 7-13 (§3.3.2's per-constraint time granularity).
	m := &model.Model{
		Name:       "weekly",
		Items:      items(6),
		NumSlots:   14,
		RequireAll: true,
		Capacities: []model.Capacity{
			{Name: "weekly", Sets: [][]int{r(6)}, Cap: 3, BucketSlots: 7},
		},
	}
	s, err := SolveContext(context.Background(), m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	weeks := map[int]int{}
	for _, slot := range s.Slots {
		weeks[slot/7]++
	}
	if weeks[0] != 3 || weeks[1] != 3 {
		t.Fatalf("weekly budgets = %v (slots %v)", weeks, s.Slots)
	}
	if v := m.Check(s.Slots); len(v) > 0 {
		t.Fatalf("violations: %v", v)
	}
	// Over-stuffed week is caught by Check.
	bad := []int{0, 1, 2, 3, 8, 9}
	if v := m.Check(bad); len(v) == 0 {
		t.Fatal("4-in-week-0 not flagged")
	}
}

func TestSolveMultiWindowDurations(t *testing.T) {
	// Two re-tuning changes of 3 windows each plus two 1-window changes,
	// cap 1 per slot, 8 slots: the long changes must occupy disjoint
	// 3-slot spans and the short ones fill the gaps.
	m := &model.Model{
		Name: "durations",
		Items: []model.Item{
			{ID: "retune-a", Duration: 3}, {ID: "retune-b", Duration: 3},
			{ID: "cfg-a"}, {ID: "cfg-b"},
		},
		NumSlots:   8,
		RequireAll: true,
		Capacities: []model.Capacity{{Name: "g", Sets: [][]int{{0, 1, 2, 3}}, Cap: 1}},
	}
	s, err := SolveContext(context.Background(), m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v := m.Check(s.Slots); len(v) > 0 {
		t.Fatalf("violations: %v", v)
	}
	// Occupancy never exceeds 1 in any slot.
	occ := make([]int, 8)
	for i, start := range s.Slots {
		for k := 0; k < m.Duration(i); k++ {
			occ[start+k]++
		}
	}
	for slot, n := range occ {
		if n > 1 {
			t.Fatalf("slot %d occupancy %d (slots %v)", slot, n, s.Slots)
		}
	}
	// Total occupied = 3+3+1+1 = 8 of 8: fully packed, makespan 8.
	if s.Makespan != 8 {
		t.Fatalf("makespan = %d", s.Makespan)
	}
}

func TestSolveDurationWindowBound(t *testing.T) {
	// A 3-window change cannot start in the last two slots.
	m := &model.Model{
		Name:       "bound",
		Items:      []model.Item{{ID: "long", Duration: 3}},
		NumSlots:   3,
		RequireAll: true,
		Forbidden:  [][]int{{0}}, // starting at 0 would hit its own ban... slot 0 banned
	}
	if _, err := SolveContext(context.Background(), m, Options{}); err != ErrInfeasible {
		t.Fatalf("err = %v, want infeasible (only feasible start covers a forbidden slot)", err)
	}
	// Without the ban it fits exactly.
	m2 := &model.Model{
		Name:       "fits",
		Items:      []model.Item{{ID: "long", Duration: 3}},
		NumSlots:   3,
		RequireAll: true,
	}
	s, err := SolveContext(context.Background(), m2, Options{})
	if err != nil || s.Slots[0] != 0 {
		t.Fatalf("s=%v err=%v", s.Slots, err)
	}
}

func TestSolveDurationConflictSpan(t *testing.T) {
	// Zero tolerance: a conflict in the middle of the span forces a later
	// start.
	m := &model.Model{
		Name:          "span",
		Items:         []model.Item{{ID: "long", Duration: 2}},
		NumSlots:      4,
		RequireAll:    true,
		ZeroConflict:  true,
		ConflictSlots: [][]int{{1}},
	}
	s, err := SolveContext(context.Background(), m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Starts 0 and 1 would cover slot 1; first clean start is 2.
	if s.Slots[0] != 2 {
		t.Fatalf("start = %d", s.Slots[0])
	}
}

func TestSolveDurationWeeklyBuckets(t *testing.T) {
	// A 3-slot change consumes one weekly budget unit per occupied slot:
	// with cap 2 per week it cannot fit inside a single week and must
	// straddle the boundary (2 units in one week + 1 in the other).
	m := &model.Model{
		Name:       "xweek",
		Items:      []model.Item{{ID: "long", Duration: 3}},
		NumSlots:   14,
		RequireAll: true,
		Capacities: []model.Capacity{
			{Name: "weekly", Sets: [][]int{{0}}, Cap: 2, BucketSlots: 7},
		},
	}
	s, err := SolveContext(context.Background(), m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v := m.Check(s.Slots); len(v) > 0 {
		t.Fatalf("violations: %v", v)
	}
	if s.Slots[0] != 5 && s.Slots[0] != 6 {
		t.Fatalf("long change start = %d, want 5 or 6 (boundary straddle)", s.Slots[0])
	}
	// Within-week placement is correctly rejected even when per-offset
	// checks would individually pass (the accumulation bug this guards).
	if v := m.Check([]int{0}); len(v) == 0 {
		t.Fatal("3-in-week-0 not flagged")
	}
}

func TestSolveSkipLeftoverOrdering(t *testing.T) {
	// RequireAll=false with a slot-starved capacity and one block whose
	// every start is forbidden (empty bitset domain from the start): the
	// solver must fill both slots from the contended trio, skip the third
	// member, and leave the fully-forbidden item over — the fail-first
	// ordering and skip-aware lower bound must not lose either leftover.
	build := func() *model.Model {
		return &model.Model{
			Name:       "skip-order",
			Items:      items(4),
			NumSlots:   2,
			Capacities: []model.Capacity{{Name: "g", Sets: [][]int{{0, 1, 2}}, Cap: 1}},
			Forbidden:  [][]int{nil, nil, nil, {0, 1}},
		}
	}
	seq, err := SolveContext(context.Background(), build(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !seq.Optimal {
		t.Fatal("tiny skip model not solved to optimality")
	}
	// Two placements at slots 0 and 1 cost 1+2; the two leftovers pay the
	// default SkipPenalty 2*(NumSlots+1) = 6 each.
	if seq.Cost != 1+2+6+6 {
		t.Fatalf("cost = %d, want 15", seq.Cost)
	}
	if seq.Unscheduled != 2 {
		t.Fatalf("unscheduled = %d, want 2", seq.Unscheduled)
	}
	if seq.Slots[3] != -1 {
		t.Fatalf("fully-forbidden item placed at %d", seq.Slots[3])
	}
	par, err := SolveContext(context.Background(), build(), Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if par.Cost != seq.Cost || par.Optimal != seq.Optimal {
		t.Fatalf("parallel cost=%d optimal=%v, sequential cost=%d optimal=%v",
			par.Cost, par.Optimal, seq.Cost, seq.Optimal)
	}
	for i := range seq.Slots {
		if par.Slots[i] != seq.Slots[i] {
			t.Fatalf("parallel slots %v != sequential %v", par.Slots, seq.Slots)
		}
	}
}

// TestForwardCheckUsesSetSpan pins capacity forward-checking to the span a
// block occupies in the saturated set, not the block's own: b and c share
// a slot, c runs three slots, but only the one-slot b sits in the pair
// capacity. With a placed at slot 1 the block can still start at 0 — b is
// gone before slot 1 — and pruning by the block's duration called that a
// dead end.
func TestForwardCheckUsesSetSpan(t *testing.T) {
	m := &model.Model{
		Name:       "set-span",
		Items:      []model.Item{{ID: "a", Weight: 3}, {ID: "b", Weight: 3}, {ID: "c", Weight: 2, Duration: 3}},
		NumSlots:   4,
		RequireAll: true,
		SameSlot:   [][]int{{1, 2}},
		Capacities: []model.Capacity{{Name: "pair", Sets: [][]int{{0, 1}}, Cap: 4}},
	}
	m.Normalize()
	s := newState(m, Options{}.withDefaults())
	a, bc := 0, 1 // blocks in item order: {a}, {b, c}
	s.place(a, &s.blocks[a], 1)
	if s.deadEnds != 0 || s.domCount[bc] != 1 || s.dom[bc*s.domWords]&1 == 0 {
		t.Fatalf("block {b,c}: %d live starts (mask %b), dead ends %d; want start 0 alone to survive",
			s.domCount[bc], s.dom[bc*s.domWords], s.deadEnds)
	}
}
