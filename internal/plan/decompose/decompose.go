// Package decompose implements the two scalability ideas of Section 3.3.3:
//
//  1. Consistency contraction: divide the changes into non-overlapping
//     groups that must be scheduled together (the consistency constraint)
//     and solve over the much smaller set of groups — the source of the
//     paper's observed 4x reduction in schedule discovery time.
//  2. Independent splitting: partition the items into sets with no
//     constraint dependencies between them, solve the sub-models in
//     parallel, and combine the solutions.
package decompose

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"

	"cornet/internal/plan/model"
	"cornet/internal/plan/solver"
)

// Contract merges every SameSlot group of m into a single weighted item,
// producing an equivalent model without consistency constraints plus an
// expansion function that maps a contracted schedule back to the original
// item space.
func Contract(m *model.Model) (*model.Model, func(model.Schedule) model.Schedule, error) {
	c, expand, _, err := contract(m)
	return c, expand, err
}

// contract is Contract plus the item -> super-item index mapping, which
// SolveContext needs to translate warm-start seeds into the contracted
// item space.
func contract(m *model.Model) (*model.Model, func(model.Schedule) model.Schedule, []int, error) {
	m.Normalize()
	if err := m.Validate(); err != nil {
		return nil, nil, nil, err
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
	// One super-item per root, numbered by smallest member for determinism.
	c := &model.Model{
		Name:         m.Name + "-contracted",
		NumSlots:     m.NumSlots,
		RequireAll:   m.RequireAll,
		SkipPenalty:  m.SkipPenalty,
		ZeroConflict: m.ZeroConflict,
		BigM:         m.BigM,
	}
	super := make([]int, n)   // item -> super index
	superOf := make([]int, n) // root -> super index; -1 until its smallest member is seen
	for i := range superOf {
		superOf[i] = -1
	}
	var members []int // super index -> member count
	for i := 0; i < n; i++ {
		r := find(i)
		if superOf[r] < 0 {
			superOf[r] = len(c.Items)
			c.Items = append(c.Items, model.Item{ID: m.Items[i].ID, Duration: 1})
			members = append(members, 0)
		}
		si := superOf[r]
		super[i] = si
		members[si]++
		c.Items[si].Weight += m.Weight(i)
		c.Items[si].Duration = max(c.Items[si].Duration, m.Duration(i))
	}
	ns := len(c.Items)
	for si, k := range members {
		if k > 1 {
			c.Items[si].ID = "grp(" + c.Items[si].ID + "+" + strconv.Itoa(k-1) + ")"
		}
	}

	// mapSet maps an index set to the sorted set of its super-items.
	// seen[s] == stamp marks s as already in the set being mapped. A mapped
	// set is no longer than its original, so the sets are cut from shared
	// chunks instead of allocated one by one.
	seen := make([]int, ns)
	stamp := 0
	var chunk []int
	mapSet := func(set []int) []int {
		if len(set) > len(chunk) {
			chunk = make([]int, max(len(set), 4*n))
		}
		out := chunk[:0:len(set)]
		chunk = chunk[len(set):]
		stamp++
		for _, i := range set {
			if s := super[i]; seen[s] != stamp {
				seen[s] = stamp
				out = append(out, s)
			}
		}
		slices.Sort(out)
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
	for i := 0; i < n; i++ {
		s := super[i]
		if i < len(m.Forbidden) {
			c.Forbidden[s] = append(c.Forbidden[s], m.Forbidden[i]...)
		}
		if i < len(m.ConflictSlots) {
			c.ConflictSlots[s] = append(c.ConflictSlots[s], m.ConflictSlots[i]...)
		}
	}
	for s := 0; s < ns; s++ {
		slices.Sort(c.Forbidden[s])
		c.Forbidden[s] = slices.Compact(c.Forbidden[s])
		slices.Sort(c.ConflictSlots[s])
		c.ConflictSlots[s] = slices.Compact(c.ConflictSlots[s])
	}
	c.Normalize()

	expand := func(s model.Schedule) model.Schedule {
		slots := make([]int, n)
		for i := 0; i < n; i++ {
			slots[i] = s.Slots[super[i]]
		}
		out, err := m.Evaluate(slots)
		if err != nil {
			panic(err) // super mapping guarantees validity
		}
		out.Optimal = s.Optimal
		out.Nodes = s.Nodes
		out.Workers = s.Workers
		out.DomainPrunes = s.DomainPrunes
		out.Steals = s.Steals
		out.Splits = s.Splits
		out.ReplayNodes = s.ReplayNodes
		out.Warm = s.Warm
		return out
	}
	return c, expand, super, nil
}

// contractSeed translates a warm-start seed from the original item space
// into the contracted one: a super-item inherits a seed slot only when
// every member the seed covers agrees on it (and none is missing), so a
// partially-edited consistency group simply starts unseeded rather than
// contradicting itself.
func contractSeed(m, c *model.Model, super []int, seed map[string]int) map[string]int {
	ns := len(c.Items)
	slot := make([]int, ns)
	ok := make([]bool, ns)
	seen := make([]bool, ns)
	for i := range m.Items {
		t, present := seed[m.Items[i].ID]
		s := super[i]
		switch {
		case !seen[s]:
			seen[s], ok[s], slot[s] = true, present, t
		case !present || !ok[s] || slot[s] != t:
			ok[s] = false
		}
	}
	out := make(map[string]int, ns)
	for s := 0; s < ns; s++ {
		if seen[s] && ok[s] {
			out[c.Items[s].ID] = slot[s]
		}
	}
	return out
}

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
	// Contract enables consistency contraction (on by default via
	// SolveDecomposed; expose for ablation).
	Contract bool
	// Split enables independent-component parallel solving.
	Split bool
	// Parallelism bounds concurrent component solves (default 4).
	Parallelism int
}

// SolveContext runs the full decomposition pipeline: optional contraction,
// then optional independent splitting with parallel solves, merging the
// partial schedules into one model.Schedule over the original item space.
//
// The first component error cancels every other in-flight component solve;
// ctx cancellation aborts the whole pipeline with an error wrapping
// ctx.Err().
func SolveContext(ctx context.Context, m *model.Model, opt SolveOptions) (model.Schedule, error) {
	if err := ctx.Err(); err != nil {
		return model.Schedule{}, fmt.Errorf("decompose: %w", err)
	}
	m.Normalize()
	expand := func(s model.Schedule) model.Schedule { return s }
	work := m
	if opt.Contract && len(m.SameSlot) > 0 {
		c, ex, super, err := contract(m)
		if err != nil {
			return model.Schedule{}, err
		}
		if len(opt.Solver.WarmSlots) > 0 {
			opt.Solver.WarmSlots = contractSeed(m, c, super, opt.Solver.WarmSlots)
		}
		work, expand = c, ex
	}
	if !opt.Split {
		s, err := solver.SolveContext(ctx, work, opt.Solver)
		if err != nil {
			return model.Schedule{}, err
		}
		return expand(s), nil
	}
	subs, indexes, err := Split(work)
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
	slots := make([]int, len(work.Items))
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
	merged, err := work.Evaluate(slots)
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
	if v := work.Check(slots); len(v) > 0 {
		return model.Schedule{}, fmt.Errorf("decompose: merged schedule infeasible: %v", v[0])
	}
	return expand(merged), nil
}
