package solver

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"cornet/internal/plan/model"
)

// oracleModels is how many random models one run of the oracle checks.
const oracleModels = 2000

// oracleModel draws a model small enough to enumerate: at most 7 items in
// at most 4 slots, mixing everything the packing bound relaxes or depends
// on — covering and partitioned capacities, per-slot and multi-slot
// buckets, durations, weights, consistency groups, forbidden and conflict
// slots, both leftover policies, explicit and defaulted skip penalties,
// and now and then a uniformity or localize constraint the bound ignores.
func oracleModel(rng *rand.Rand) *model.Model {
	n := 2 + rng.Intn(6)
	T := 2 + rng.Intn(3)
	m := &model.Model{
		Name:         "oracle",
		Items:        items(n),
		NumSlots:     T,
		RequireAll:   rng.Intn(2) == 0,
		ZeroConflict: rng.Intn(4) == 0,
	}
	if rng.Intn(2) == 0 {
		// Small explicit penalties make skipping cheaper than the late
		// slots, the switch the pour has to follow.
		m.SkipPenalty = 1 + rng.Intn(2*T+2)
	}
	total, maxW := 0, 0
	for i := range m.Items {
		w := 1 + rng.Intn(4)
		m.Items[i].Weight = w
		m.Items[i].Duration = 1 + rng.Intn(min(3, T))
		total += w
		maxW = max(maxW, w)
	}
	if rng.Intn(5) == 0 {
		m.Items[0].Weight, m.Items[0].Duration = 0, 0 // defaults to 1, 1
	}
	for k := rng.Intn(3); k > 0; k-- {
		c := model.Capacity{Name: fmt.Sprintf("c%d", k), Cap: maxW + rng.Intn(total/T+2)}
		if rng.Intn(3) == 0 {
			c.BucketSlots = 2 + rng.Intn(T-1)
			c.Cap += maxW
		}
		if rng.Intn(2) == 0 {
			c.Sets = [][]int{r(n)}
		} else {
			cut := 1 + rng.Intn(n-1)
			c.Sets = [][]int{r(n)[:cut], r(n)[cut:]}
		}
		m.Capacities = append(m.Capacities, c)
	}
	if rng.Intn(5) == 0 {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(rng.Intn(3))
		}
		m.Uniform = []model.Uniform{{Name: "u", Values: vals, MaxDist: 1}}
	}
	locCut := 0
	if rng.Intn(5) == 0 {
		locCut = 1 + rng.Intn(n-1)
		m.Localized = []model.Localized{{Name: "l", Groups: [][]int{r(n)[:locCut], r(n)[locCut:]}}}
	}
	if n >= 3 && rng.Intn(3) == 0 {
		a := rng.Intn(n - 2)
		class := []int{a, a + 1}
		if rng.Intn(2) == 0 {
			class = append(class, a+2)
		}
		// A consistency class astride both localize groups would have to
		// not interleave with itself, which the solver does not model (in
		// the paper's compositions a USID never spans markets).
		if last := class[len(class)-1]; a >= locCut || last < locCut {
			m.SameSlot = [][]int{class[:2]}
			if len(class) == 3 {
				m.SameSlot = append(m.SameSlot, class[1:]) // overlapping: one block of three
			}
			if len(m.Uniform)+len(m.Localized) > 0 {
				// A block's uniformity and localize footprint spans its
				// longest member (DESIGN §8): exact only when members agree.
				for _, i := range class {
					m.Items[i].Duration = m.Items[a].Duration
				}
			}
		}
	}
	m.Forbidden = make([][]int, n)
	m.ConflictSlots = make([][]int, n)
	for i := 0; i < n; i++ {
		if rng.Intn(4) == 0 {
			m.Forbidden[i] = []int{rng.Intn(T)}
		}
		if rng.Intn(3) == 0 {
			m.ConflictSlots[i] = []int{rng.Intn(T)}
		}
	}
	m.Normalize()
	return m
}

// exhaustive enumerates every assignment of m that agrees with fixed
// (per item: a slot, -1 for a leftover, -2 for free) and returns the
// cheapest feasible one. It shares nothing with the solver: no blocks, no
// domains, no bound beyond "costs only grow". It walks items in index
// order, keeps per-bucket capacity usage, which can only grow, to cut
// overfull prefixes, and takes model.Check's word on every leaf that
// would improve the best.
func exhaustive(m *model.Model, fixed []int) (best int64, bestSlots []int, found bool) {
	n, T := len(m.Items), m.NumSlots
	rep := make([]int, n) // first item of i's consistency class
	for i := range rep {
		rep[i] = i
	}
	for changed := true; changed; {
		changed = false
		for _, grp := range m.SameSlot {
			lo := n
			for _, i := range grp {
				lo = min(lo, rep[i])
			}
			for _, i := range grp {
				if rep[i] != lo {
					rep[i], changed = lo, true
				}
			}
		}
	}
	usage := make([][][]int, len(m.Capacities))
	for ci, c := range m.Capacities {
		usage[ci] = make([][]int, len(c.Sets))
		for si := range c.Sets {
			usage[ci][si] = make([]int, c.NumBuckets(T))
		}
	}
	// charge adds (sign +1) or removes (-1) item i started at t and
	// reports whether every bucket it touches is within its cap.
	charge := func(i, t, sign int) bool {
		fits := true
		for ci, c := range m.Capacities {
			for si, set := range c.Sets {
				for _, j := range set {
					if j != i {
						continue
					}
					for k := 0; k < m.Duration(i); k++ {
						b := c.Bucket(t + k)
						usage[ci][si][b] += sign * m.Weight(i)
						if usage[ci][si][b] > c.Cap {
							fits = false
						}
					}
				}
			}
		}
		return fits
	}
	best = math.MaxInt64
	slots := make([]int, n)
	var walk func(i int, cost int64)
	walk = func(i int, cost int64) {
		if cost >= best {
			return
		}
		if i == n {
			if len(m.Check(slots)) == 0 {
				best, bestSlots, found = cost, append([]int(nil), slots...), true
			}
			return
		}
		for t := -1; t+m.Duration(i) <= T; t++ {
			if fixed[i] != -2 && fixed[i] != t {
				continue
			}
			if rep[i] != i && slots[rep[i]] != t {
				continue
			}
			slots[i] = t
			if t < 0 {
				if !m.RequireAll {
					walk(i+1, cost+int64(m.SkipPenalty)*int64(m.Weight(i)))
				}
				continue
			}
			add := int64(t+m.Duration(i)) * int64(m.Weight(i))
			if !m.ZeroConflict {
				for _, f := range m.ConflictSlots[i] {
					if f >= t && f < t+m.Duration(i) {
						add += int64(m.BigM)
					}
				}
			}
			if charge(i, t, +1) {
				walk(i+1, cost+add)
			}
			charge(i, t, -1)
		}
	}
	walk(0, 0)
	return best, bestSlots, found
}

// stateSnapshot is everything place/unplace and assignSkip/undoSkip must
// restore exactly.
type stateSnapshot struct {
	cost, conflicts, lbUnassigned int64
	unWeight, deadEnds            int
	usage                         [][][]int
	uniLo, uniHi                  [][]float64
	locLo, locHi                  [][]int
	uniHas, locHas                [][]bool
	satMask                       [][]uint64
	dom                           []uint64
	domCount, assigned            []int
	contrib                       []int64
}

func snapshot(s *state) stateSnapshot {
	c := s.clone()
	return stateSnapshot{
		cost: s.cost, conflicts: s.conflicts, lbUnassigned: s.lbUnassigned,
		unWeight: s.unWeight, deadEnds: s.deadEnds,
		usage: c.usage, uniLo: c.uniLo, uniHi: c.uniHi, locLo: c.locLo, locHi: c.locHi,
		uniHas: c.uniHas, locHas: c.locHas, satMask: c.satMask,
		dom: c.dom, domCount: c.domCount, assigned: c.assigned, contrib: c.contrib,
	}
}

// checkPartials drives a fresh state to random partial assignments through
// place and assignSkip, the way the search does, and at each holds both
// node bounds to the exhaustive best completion: neither may exceed it,
// and a subtree either calls dead must have none. Unwinding must then
// restore the root state exactly, unassigned weight included. It reports
// whether the model has a covering set, i.e. the packing bound was live.
func checkPartials(t *testing.T, seed int64, rng *rand.Rand, m *model.Model) (covering bool) {
	s := newState(m, Options{}.withDefaults())
	root := snapshot(s)
	type frame struct {
		bi, t int
		mark  undoMark
		added int64
	}
	var trail []frame
	fixed := make([]int, len(m.Items))
	for i := range fixed {
		fixed[i] = -2
	}
	for depth, bi := range rng.Perm(len(s.blocks)) {
		b := &s.blocks[bi]
		scratch := s.buildScratch(bi, b, depth)
		var starts []int
		for ts := 0; ts < m.NumSlots; ts++ {
			if scratch[ts>>6]&(1<<(uint(ts)&63)) != 0 && s.feasible(b, ts) {
				starts = append(starts, ts)
			}
		}
		if !m.RequireAll {
			starts = append(starts, -1)
		}
		if len(starts) == 0 {
			break
		}
		f := frame{bi: bi, t: starts[rng.Intn(len(starts))]}
		if f.t < 0 {
			s.assignSkip(bi, b)
		} else {
			f.mark, f.added = s.place(bi, b, f.t)
		}
		trail = append(trail, f)
		for _, i := range b.items {
			fixed[i] = f.t
		}

		best, _, found := exhaustive(m, fixed)
		dead := s.deadEnds > 0
		if s.packC >= 0 {
			pb, ok := s.packBound()
			if !ok {
				dead = true
			} else if found && s.cost+pb > best {
				t.Fatalf("seed %d: cost %d + packBound %d exceeds the best completion %d of %v\n%+v",
					seed, s.cost, pb, best, fixed, m)
			}
		}
		if dead && found {
			t.Fatalf("seed %d: %v called a dead end, yet completes at cost %d\n%+v", seed, fixed, best, m)
		}
		if found && s.cost+s.lbUnassigned > best {
			t.Fatalf("seed %d: cost %d + additive bound %d exceeds the best completion %d of %v\n%+v",
				seed, s.cost, s.lbUnassigned, best, fixed, m)
		}
	}
	for i := len(trail) - 1; i >= 0; i-- {
		f := trail[i]
		if f.t < 0 {
			s.undoSkip(f.bi, &s.blocks[f.bi])
		} else {
			s.unplace(f.bi, &s.blocks[f.bi], f.t, f.mark, f.added)
		}
	}
	if got := snapshot(s); !reflect.DeepEqual(got, root) {
		t.Fatalf("seed %d: place/unplace round trip changed the state\n got %+v\nwant %+v", seed, got, root)
	}
	return s.packC >= 0
}

// TestSolverOracle is the admissibility and equivalence oracle: on random
// models small enough to enumerate, the solver's cost is the exhaustive
// optimum (also when the model splits into independent components), two
// and four workers return the sequential cost, slot vector and error, a
// warm seed (the optimum itself, or a first feasible schedule) changes
// nothing, and no bound ever exceeds the best completion.
func TestSolverOracle(t *testing.T) {
	limits := Options{MaxNodes: 5_000_000, TimeLimit: time.Minute}
	free := make([]int, 7)
	for i := range free {
		free[i] = -2
	}
	feasible, covering, split := 0, 0, 0
	for seed := int64(1); seed <= oracleModels; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := oracleModel(rng)
		if components(m) != nil {
			split++
		}
		want, _, found := exhaustive(m, free[:len(m.Items)])

		seqOpt := limits
		seqOpt.Parallelism = 1
		seq, err := SolveContext(context.Background(), m, seqOpt)
		if !found {
			if !errors.Is(err, ErrInfeasible) {
				t.Fatalf("seed %d: no feasible assignment exists, solver returned cost %d, err %v\n%+v", seed, seq.Cost, err, m)
			}
		} else {
			feasible++
			if err != nil {
				t.Fatalf("seed %d: %v, exhaustive optimum %d\n%+v", seed, err, want, m)
			}
			if !seq.Optimal || seq.Cost != want {
				t.Fatalf("seed %d: cost %d (optimal=%v), exhaustive optimum %d\n%+v", seed, seq.Cost, seq.Optimal, want, m)
			}
		}
		for _, workers := range []int{2, 4} {
			parOpt := limits
			parOpt.Parallelism = workers
			par, perr := SolveContext(context.Background(), m, parOpt)
			if !errors.Is(perr, err) || par.Cost != seq.Cost || !reflect.DeepEqual(par.Slots, seq.Slots) {
				t.Fatalf("seed %d workers=%d: cost %d slots %v err %v, sequential cost %d slots %v err %v\n%+v",
					seed, workers, par.Cost, par.Slots, perr, seq.Cost, seq.Slots, err, m)
			}
		}
		if found {
			firstOpt := seqOpt
			firstOpt.FirstSolutionOnly = true
			first, err := SolveContext(context.Background(), m, firstOpt)
			if err != nil {
				t.Fatalf("seed %d first solution: %v", seed, err)
			}
			for _, seedSched := range []model.Schedule{seq, first} {
				for _, workers := range []int{1, 2} {
					warmOpt := limits
					warmOpt.Parallelism = workers
					warmOpt.WarmSlots = seedFromSchedule(m, seedSched)
					warm, err := SolveContext(context.Background(), m, warmOpt)
					if err != nil || !warm.Warm || !warm.Optimal || warm.Cost != want {
						t.Fatalf("seed %d workers=%d: warm cost %d (warm=%v optimal=%v err=%v) from a seed of cost %d, cold cost %d\n%+v",
							seed, workers, warm.Cost, warm.Warm, warm.Optimal, err, seedSched.Cost, want, m)
					}
				}
			}
		}
		if checkPartials(t, seed, rng, m) {
			covering++
		}
	}
	// The draw must keep exercising both sides of every split.
	if feasible < oracleModels/2 || feasible == oracleModels {
		t.Fatalf("%d of %d models feasible: the generator no longer mixes feasible and infeasible", feasible, oracleModels)
	}
	if covering < oracleModels/5 || covering > oracleModels*4/5 {
		t.Fatalf("%d of %d models have a covering set: the generator no longer mixes packing-bound on and off", covering, oracleModels)
	}
	if split < oracleModels/10 {
		t.Fatalf("%d of %d models split into components: the oracle no longer checks the split", split, oracleModels)
	}
}
