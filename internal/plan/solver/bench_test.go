package solver

import (
	"context"
	"testing"
	"time"

	"cornet/internal/plan/model"
)

// benchState builds a ready-to-search state over the dense Section-4.2
// template with a few blocks pre-placed, the setting the hot-path
// micro-benchmarks probe.
func benchState(b *testing.B) (*state, *model.Model) {
	m := denseModel(240)
	m.Normalize()
	if err := m.Validate(); err != nil {
		b.Fatal(err)
	}
	return newState(m, Options{}.withDefaults()), m
}

// BenchmarkSolve is the headline kernel benchmark: sequential search over
// the bench-parallel dense model at a fixed node budget, reported as
// nodes/sec. The committed BENCH_plan.json baseline tracks this number
// across PRs (see EXPERIMENTS.md for the refresh procedure).
func BenchmarkSolve(b *testing.B) {
	const nodeBudget = 300_000
	var nodes, prunes int64
	for i := 0; i < b.N; i++ {
		s, err := SolveContext(context.Background(), denseModel(240), Options{
			Parallelism: 1,
			MaxNodes:    nodeBudget,
			TimeLimit:   time.Hour,
		})
		if err != nil {
			b.Fatal(err)
		}
		nodes += s.Nodes
		prunes += s.DomainPrunes
	}
	b.ReportAllocs()
	b.ReportMetric(float64(nodes)/b.Elapsed().Seconds(), "nodes/sec")
	b.ReportMetric(float64(prunes)/float64(b.N), "prunes/op")
}

// BenchmarkFeasible measures the per-candidate constraint check that the
// search runs for every slot surviving the candidate mask.
func BenchmarkFeasible(b *testing.B) {
	s, _ := benchState(b)
	bi := s.order[0]
	blk := &s.blocks[bi]
	scratch := s.buildScratch(bi, blk, 0)
	b.ReportAllocs()
	b.ResetTimer()
	ok := 0
	for i := 0; i < b.N; i++ {
		t := i % s.m.NumSlots
		if scratch[t>>6]&(1<<(uint(t)&63)) == 0 {
			continue
		}
		if s.feasible(blk, t) {
			ok++
		}
	}
	_ = ok
}

// BenchmarkPlaceUnplace measures one propagate/undo round trip through
// the preallocated arena. The acceptance bar is 0 allocs/op steady-state
// (asserted hard by TestPlaceUnplaceZeroAlloc).
func BenchmarkPlaceUnplace(b *testing.B) {
	s, _ := benchState(b)
	bi := s.order[0]
	blk := &s.blocks[bi]
	scratch := s.buildScratch(bi, blk, 0)
	t0 := -1
	for t := 0; t < s.m.NumSlots; t++ {
		if scratch[t>>6]&(1<<(uint(t)&63)) != 0 && s.feasible(blk, t) {
			t0 = t
			break
		}
	}
	if t0 < 0 {
		b.Fatal("no feasible slot for the first block")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mark, added := s.place(bi, blk, t0)
		s.unplace(bi, blk, t0, mark, added)
	}
}

// TestPlaceUnplaceZeroAlloc pins the zero-alloc undo guarantee: after one
// warm-up round trip (which may grow the arenas once), place+unplace must
// not allocate.
func TestPlaceUnplaceZeroAlloc(t *testing.T) {
	m := denseModel(240)
	m.Normalize()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	s := newState(m, Options{}.withDefaults())
	bi := s.order[0]
	blk := &s.blocks[bi]
	scratch := s.buildScratch(bi, blk, 0)
	t0 := -1
	for ts := 0; ts < m.NumSlots; ts++ {
		if scratch[ts>>6]&(1<<(uint(ts)&63)) != 0 && s.feasible(blk, ts) {
			t0 = ts
			break
		}
	}
	if t0 < 0 {
		t.Fatal("no feasible slot for the first block")
	}
	mark, added := s.place(bi, blk, t0)
	s.unplace(bi, blk, t0, mark, added)
	allocs := testing.AllocsPerRun(100, func() {
		mark, added := s.place(bi, blk, t0)
		s.unplace(bi, blk, t0, mark, added)
	})
	if allocs != 0 {
		t.Fatalf("place+unplace allocated %v times per run, want 0", allocs)
	}
}
