package solver

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"cornet/internal/plan/model"
)

// randomModel builds a feasible seeded model exercising capacities,
// conflicts, and consistency groups — the mix the root-split search must
// reproduce sequentially-identical costs on.
func randomModel(seed int64) *model.Model {
	rng := rand.New(rand.NewSource(seed))
	n := 7 + rng.Intn(6)
	slots := 4 + rng.Intn(2)
	cap := 3 + rng.Intn(2)
	if cap*slots < n {
		cap = (n + slots - 1) / slots
	}
	m := &model.Model{
		Name:       "par-rand",
		Items:      items(n),
		NumSlots:   slots,
		RequireAll: rng.Intn(2) == 0,
		Capacities: []model.Capacity{{Name: "g", Sets: [][]int{r(n)}, Cap: cap}},
	}
	m.ConflictSlots = make([][]int, n)
	for i := 0; i < n; i++ {
		if rng.Intn(3) == 0 {
			m.ConflictSlots[i] = []int{rng.Intn(slots)}
		}
	}
	if rng.Intn(2) == 0 {
		m.SameSlot = [][]int{{0, 1}}
	}
	return m
}

// TestSolverParallelMatchesSequential is the determinism contract: on a
// complete search the parallel solver proves the same optimal cost as the
// sequential one, whatever the worker count.
func TestSolverParallelMatchesSequential(t *testing.T) {
	limits := Options{MaxNodes: 30_000_000, TimeLimit: time.Minute}
	for seed := int64(1); seed <= 7; seed++ {
		seqOpt := limits
		seqOpt.Parallelism = 1
		seq, err := SolveContext(context.Background(), randomModel(seed), seqOpt)
		if err != nil {
			t.Fatalf("seed %d sequential: %v", seed, err)
		}
		for _, workers := range []int{2, 4, 8} {
			parOpt := limits
			parOpt.Parallelism = workers
			par, err := SolveContext(context.Background(), randomModel(seed), parOpt)
			if err != nil {
				t.Fatalf("seed %d workers=%d: %v", seed, workers, err)
			}
			if !seq.Optimal || !par.Optimal {
				t.Fatalf("seed %d workers=%d: optimality seq=%v par=%v", seed, workers, seq.Optimal, par.Optimal)
			}
			if par.Cost != seq.Cost {
				t.Fatalf("seed %d workers=%d: cost = %d, sequential = %d", seed, workers, par.Cost, seq.Cost)
			}
			for i := range par.Slots {
				if par.Slots[i] != seq.Slots[i] {
					t.Fatalf("seed %d workers=%d: slots = %v, sequential = %v", seed, workers, par.Slots, seq.Slots)
				}
			}
			if par.Workers != workers && par.Workers > workers {
				t.Fatalf("seed %d: reported workers = %d, configured %d", seed, par.Workers, workers)
			}
			if len(randomModel(seed).Check(par.Slots)) != 0 {
				t.Fatalf("seed %d workers=%d: parallel schedule violates the model", seed, workers)
			}
		}
	}
}

// TestSolverParallelSameErrors checks the parallel path mirrors the
// sequential error contract on infeasible models.
func TestSolverParallelSameErrors(t *testing.T) {
	m := &model.Model{
		Name:       "par-infeasible",
		Items:      items(5),
		NumSlots:   1,
		RequireAll: true,
		Capacities: []model.Capacity{{Name: "g", Sets: [][]int{{0, 1, 2, 3, 4}}, Cap: 3}},
	}
	if _, err := SolveContext(context.Background(), m, Options{Parallelism: 4}); err != ErrInfeasible {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

// hardModel is a search that does not finish, so cancellation and budget
// expiry are observable: the dense template at 30 items, every item
// conflicting in one slot. It has to be hard for the packing bound too —
// a model that is only a covering capacity is proved optimal in
// microseconds — and is: the bound sees the capacity alone, and
// uniformity x localize hold the optimum far above it (a 4e8-node search
// is still improving at cost 352 against a root bound of 128).
func hardModel() *model.Model {
	return denseTemplate("par-hard", 30, 10, 4, 4, 1)
}

// TestHardModelStaysHard keeps the fixture the limit, cancellation and
// deadline tests share from going soft under a stronger bound: the packing
// bound is live on it (a covering set exists), yet both root bounds sit
// below the cost a 100k-node search reaches, and that search does not
// finish.
func TestHardModelStaysHard(t *testing.T) {
	m := hardModel()
	sched, err := SolveContext(context.Background(), m, Options{Parallelism: 1, MaxNodes: 100_000, TimeLimit: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if sched.Optimal {
		t.Fatalf("hardModel solved to optimality in %d nodes: the fixture went soft", sched.Nodes)
	}
	s := newState(m, Options{}.withDefaults())
	if s.packC < 0 {
		t.Fatal("hardModel has no covering capacity set: the packing bound is not exercised")
	}
	pb, ok := s.packBound()
	if !ok || pb >= sched.Cost {
		t.Fatalf("root packing bound = %d (ok=%v), not below the best known cost %d", pb, ok, sched.Cost)
	}
	if s.lbUnassigned >= sched.Cost {
		t.Fatalf("root additive bound = %d, not below the best known cost %d", s.lbUnassigned, sched.Cost)
	}
}

// TestSolverParallelCancellation shows every worker observes ctx
// cancellation promptly: SolveContext must return well before the search
// space is exhausted.
func TestSolverParallelCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := SolveContext(ctx, hardModel(), Options{Parallelism: 4, TimeLimit: time.Hour, MaxNodes: 1 << 60})
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want wrapped context.Canceled", err)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("workers took %v to observe cancellation", elapsed)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("parallel solve did not return after cancellation")
	}
}

// TestSolveOverlappingSameSlotGroups is the union-find regression test:
// {0,1} and {1,2} share item 1, so all three items must land on one slot
// (the pre-fix code silently dropped item 2 from the merged block).
func TestSolveOverlappingSameSlotGroups(t *testing.T) {
	m := &model.Model{
		Name:       "sameslot-overlap",
		Items:      items(3),
		NumSlots:   3,
		RequireAll: true,
		SameSlot:   [][]int{{0, 1}, {1, 2}},
		Capacities: []model.Capacity{{Name: "g", Sets: [][]int{{0, 1, 2}}, Cap: 3}},
	}
	s, err := SolveContext(context.Background(), m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Slots[0] != s.Slots[1] || s.Slots[1] != s.Slots[2] {
		t.Fatalf("overlapping SameSlot groups split across slots: %v", s.Slots)
	}
	// Three transitively-linked chains collapse the same way.
	m2 := &model.Model{
		Name:       "sameslot-chain",
		Items:      items(5),
		NumSlots:   4,
		RequireAll: true,
		SameSlot:   [][]int{{0, 1}, {2, 3}, {1, 2}},
		Capacities: []model.Capacity{{Name: "g", Sets: [][]int{{0, 1, 2, 3, 4}}, Cap: 5}},
	}
	s2, err := SolveContext(context.Background(), m2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if s2.Slots[i] != s2.Slots[0] {
			t.Fatalf("chained SameSlot groups split across slots: %v", s2.Slots)
		}
	}
}

// denseTemplate builds the Section-4.2 dense template — the shape whose
// discovery time blows up in the paper's Figure 9 — at a chosen size: n
// items dealt round-robin into groups that double as uniformity values
// (MaxDist 1) and localize groups, one covering per-slot capacity, a
// conflict at slot i%slots for every conflictStride-th item, leftovers
// allowed.
func denseTemplate(name string, n, slots, groups, cap, conflictStride int) *model.Model {
	m := &model.Model{
		Name:       name,
		Items:      items(n),
		NumSlots:   slots,
		Capacities: []model.Capacity{{Name: "g", Sets: [][]int{r(n)}, Cap: cap}},
	}
	vals := make([]float64, n)
	grp := make([][]int, groups)
	m.ConflictSlots = make([][]int, n)
	for i := 0; i < n; i++ {
		g := i % groups
		vals[i] = float64(g)
		grp[g] = append(grp[g], i)
		if i%conflictStride == 0 {
			m.ConflictSlots[i] = []int{i % slots}
		}
	}
	m.Uniform = []model.Uniform{{Name: "tz", Values: vals, MaxDist: 1}}
	m.Localized = []model.Localized{{Name: "market", Groups: grp}}
	return m
}

// denseModel is the dense template at benchmark scale: uniformity and
// localize constraints active over >=200 items in 12 slots.
func denseModel(n int) *model.Model {
	if n < 200 {
		n = 200
	}
	return denseTemplate("dense", n, 12, 8, n/12+4, 5)
}

// BenchmarkSolverParallel measures root-split scaling on the dense
// Section-4.2 template at a fixed node budget. On multi-core hardware the
// 4-worker case should clear 2x over workers=1; per-op nodes/sec is
// reported so single-core CI still tracks the trajectory.
func BenchmarkSolverParallel(b *testing.B) {
	const nodeBudget = 300_000
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var nodes int64
			for i := 0; i < b.N; i++ {
				s, err := SolveContext(context.Background(), denseModel(200), Options{
					Parallelism: workers,
					MaxNodes:    nodeBudget,
					TimeLimit:   time.Hour,
				})
				if err != nil {
					b.Fatal(err)
				}
				nodes += s.Nodes
			}
			b.ReportMetric(float64(nodes)/b.Elapsed().Seconds(), "nodes/sec")
		})
	}
}
