package solver

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"cornet/internal/plan/model"
)

// hardPoolsModel is k independent copies of one pool: 40 items, weights
// 1–9, a quarter of each item's 12 slots forbidden, at most weight 23 per
// slot. The pool (seed 4) does not close within seconds, so every
// component searches until its time budget runs out.
func hardPoolsModel(k int) *model.Model {
	const per, slots = 40, 12
	m := &model.Model{Name: "hard-pools", NumSlots: slots}
	sets := make([][]int, k)
	for c := range sets {
		rng := rand.New(rand.NewSource(4))
		for j := 0; j < per; j++ {
			sets[c] = append(sets[c], len(m.Items))
			m.Items = append(m.Items, model.Item{ID: fmt.Sprintf("p%d-%02d", c, j), Weight: 1 + rng.Intn(9)})
			m.Forbidden = append(m.Forbidden, rng.Perm(slots)[:slots/4])
		}
	}
	m.Capacities = []model.Capacity{{Name: "per-pool", Sets: sets, Cap: 23}}
	return m
}

// TestSplitSharesOneTimeLimit checks TimeLimit bounds the whole call: the
// components of a split model share one soft deadline instead of each
// starting a fresh TimeLimit clock, so three components that never close
// return together near the limit with the best incumbent, not after three
// limits.
func TestSplitSharesOneTimeLimit(t *testing.T) {
	const limit = 200 * time.Millisecond
	m := hardPoolsModel(3)
	if comps := components(m); len(comps) != 3 {
		t.Fatalf("components = %d, want 3", len(comps))
	}
	start := time.Now()
	sched, err := SolveContext(context.Background(), m, Options{
		Parallelism: 1, MaxNodes: 1 << 40, TimeLimit: limit,
	})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("SolveContext: %v (want the incumbent)", err)
	}
	if sched.Optimal {
		t.Fatal("the hard pools closed: the fixture went soft")
	}
	if len(sched.Slots) != len(m.Items) {
		t.Fatalf("schedule covers %d of %d items", len(sched.Slots), len(m.Items))
	}
	if elapsed > limit+100*time.Millisecond {
		t.Fatalf("solve took %v for a %v TimeLimit", elapsed, limit)
	}
}
