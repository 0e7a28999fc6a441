// Package decompose implements the second scalability idea of Section
// 3.3.3, independent splitting: partition the items into sets with no
// constraint dependencies between them, solve the sub-models in parallel,
// and combine the solutions.
//
// The first idea, scheduling each consistency group as one unit, is not
// a pre-pass here: the solver merges SameSlot groups into blocks and
// searches one decision per block, with exact per-member capacity,
// uniformity and localize bookkeeping (solver.newState).
package decompose

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"cornet/internal/plan/model"
	"cornet/internal/plan/solver"
)

// Split partitions the model into independent sub-models: items are
// coupled when they share a capacity set, appear under the same group-count
// or localize constraint, or when any uniformity constraint is present
// (uniformity couples every pair). Returns one model per component with an
// index mapping back to the original item space. A model with a single
// component returns itself.
func Split(m *model.Model) ([]*model.Model, [][]int, error) {
	m.Normalize()
	if err := m.Validate(); err != nil {
		return nil, nil, err
	}
	n := len(m.Items)
	if len(m.Uniform) > 0 {
		// Uniformity couples all items: no split possible.
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		return []*model.Model{m}, [][]int{idx}, nil
	}
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
	coupleSet := func(set []int) {
		for i := 1; i < len(set); i++ {
			union(set[0], set[i])
		}
	}
	for _, c := range m.Capacities {
		for _, set := range c.Sets {
			coupleSet(set)
		}
	}
	for _, g := range m.GroupCounts {
		// The shared per-slot count cap couples all groups of the
		// constraint.
		var all []int
		for _, grp := range g.Groups {
			all = append(all, grp...)
		}
		coupleSet(all)
	}
	for _, grp := range m.SameSlot {
		coupleSet(grp)
	}
	for _, l := range m.Localized {
		var all []int
		for _, grp := range l.Groups {
			all = append(all, grp...)
		}
		coupleSet(all)
	}

	comps := map[int][]int{}
	for i := 0; i < n; i++ {
		r := find(i)
		comps[r] = append(comps[r], i)
	}
	if len(comps) == 1 {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		return []*model.Model{m}, [][]int{idx}, nil
	}
	roots := make([]int, 0, len(comps))
	for r := range comps {
		roots = append(roots, r)
	}
	sort.Slice(roots, func(i, j int) bool { return comps[roots[i]][0] < comps[roots[j]][0] })

	var subs []*model.Model
	var indexes [][]int
	for ci, r := range roots {
		members := comps[r]
		local := map[int]int{}
		sub := &model.Model{
			Name:         fmt.Sprintf("%s-part%d", m.Name, ci),
			NumSlots:     m.NumSlots,
			RequireAll:   m.RequireAll,
			SkipPenalty:  m.SkipPenalty,
			ZeroConflict: m.ZeroConflict,
			BigM:         m.BigM,
		}
		for li, gi := range members {
			local[gi] = li
			sub.Items = append(sub.Items, m.Items[gi])
		}
		remap := func(set []int) ([]int, bool) {
			var out []int
			for _, i := range set {
				if li, ok := local[i]; ok {
					out = append(out, li)
				}
			}
			return out, len(out) > 0
		}
		for _, c := range m.Capacities {
			nc := model.Capacity{Name: c.Name, Cap: c.Cap, BucketSlots: c.BucketSlots}
			for _, set := range c.Sets {
				if rs, ok := remap(set); ok {
					nc.Sets = append(nc.Sets, rs)
				}
			}
			if len(nc.Sets) > 0 {
				sub.Capacities = append(sub.Capacities, nc)
			}
		}
		for _, g := range m.GroupCounts {
			ng := model.GroupCount{Name: g.Name, Cap: g.Cap}
			for _, grp := range g.Groups {
				if rs, ok := remap(grp); ok {
					ng.Groups = append(ng.Groups, rs)
				}
			}
			if len(ng.Groups) > 0 {
				sub.GroupCounts = append(sub.GroupCounts, ng)
			}
		}
		for _, grp := range m.SameSlot {
			if rs, ok := remap(grp); ok && len(rs) > 1 {
				sub.SameSlot = append(sub.SameSlot, rs)
			}
		}
		for _, l := range m.Localized {
			nl := model.Localized{Name: l.Name}
			for _, grp := range l.Groups {
				if rs, ok := remap(grp); ok {
					nl.Groups = append(nl.Groups, rs)
				}
			}
			if len(nl.Groups) > 0 {
				sub.Localized = append(sub.Localized, nl)
			}
		}
		sub.Forbidden = make([][]int, len(members))
		sub.ConflictSlots = make([][]int, len(members))
		for li, gi := range members {
			if gi < len(m.Forbidden) {
				sub.Forbidden[li] = append([]int(nil), m.Forbidden[gi]...)
			}
			if gi < len(m.ConflictSlots) {
				sub.ConflictSlots[li] = append([]int(nil), m.ConflictSlots[gi]...)
			}
		}
		sub.Normalize()
		subs = append(subs, sub)
		indexes = append(indexes, members)
	}
	return subs, indexes, nil
}

// SolveOptions configure the decomposed solve.
type SolveOptions struct {
	Solver solver.Options
	// Parallelism bounds concurrent component solves (default 4).
	Parallelism int
}

// SolveContext splits m into independent components, solves them in
// parallel, and merges the partial schedules into one model.Schedule over
// m's items.
//
// The first component error cancels every other in-flight component solve;
// ctx cancellation aborts the whole pipeline with an error wrapping
// ctx.Err().
func SolveContext(ctx context.Context, m *model.Model, opt SolveOptions) (model.Schedule, error) {
	if err := ctx.Err(); err != nil {
		return model.Schedule{}, fmt.Errorf("decompose: %w", err)
	}
	subs, indexes, err := Split(m)
	if err != nil {
		return model.Schedule{}, err
	}
	par := opt.Parallelism
	if par <= 0 {
		par = 4
	}
	// The first worker failure cancels every other component solve instead
	// of letting them run to completion on a request that is already lost.
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		mu       sync.Mutex
		firstErr error
		firstIdx int
	)
	fail := func(i int, err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr, firstIdx = err, i
			cancel()
		}
		mu.Unlock()
	}
	results := make([]model.Schedule, len(subs))
	solved := make([]bool, len(subs))
	sem := make(chan struct{}, par)
	var wg sync.WaitGroup
	for i, sub := range subs {
		wg.Add(1)
		go func(i int, sub *model.Model) {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
			case <-cctx.Done():
				fail(i, cctx.Err())
				return
			}
			defer func() { <-sem }()
			s, err := solver.SolveContext(cctx, sub, opt.Solver)
			if err != nil {
				fail(i, err)
				return
			}
			results[i] = s
			solved[i] = true
		}(i, sub)
	}
	wg.Wait()
	if firstErr != nil {
		return model.Schedule{}, fmt.Errorf("decompose: component %d: %w", firstIdx, firstErr)
	}
	slots := make([]int, len(m.Items))
	optimal := true
	warm := false
	var nodes, prunes, steals, splits, replay int64
	workers := 0
	for i, r := range results {
		if !solved[i] {
			return model.Schedule{}, fmt.Errorf("decompose: component %d: not solved", i)
		}
		for li, gi := range indexes[i] {
			slots[gi] = r.Slots[li]
		}
		optimal = optimal && r.Optimal
		warm = warm || r.Warm
		nodes += r.Nodes
		prunes += r.DomainPrunes
		steals += r.Steals
		splits += r.Splits
		replay += r.ReplayNodes
		if r.Workers > workers {
			workers = r.Workers
		}
	}
	merged, err := m.Evaluate(slots)
	if err != nil {
		return model.Schedule{}, err
	}
	merged.Optimal = optimal
	merged.Nodes = nodes
	merged.Workers = workers
	merged.DomainPrunes = prunes
	merged.Steals = steals
	merged.Splits = splits
	merged.ReplayNodes = replay
	merged.Warm = warm
	if v := m.Check(slots); len(v) > 0 {
		return model.Schedule{}, fmt.Errorf("decompose: merged schedule infeasible: %v", v[0])
	}
	return merged, nil
}
