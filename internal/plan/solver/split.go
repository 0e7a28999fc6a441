package solver

import (
	"context"
	"fmt"
	"sync"
	"time"

	"cornet/internal/plan/model"
)

// unionFind is a disjoint-set forest over item indexes. newState merges
// consistency groups into blocks with it, components merges every
// constraint row into independent components.
type unionFind []int

func newUnionFind(n int) unionFind {
	u := make(unionFind, n)
	for i := range u {
		u[i] = i
	}
	return u
}

func (u unionFind) find(x int) int {
	for u[x] != x {
		u[x] = u[u[x]] // path halving
		x = u[x]
	}
	return x
}

// join puts every member of rows into the class of the first one.
func (u unionFind) join(rows ...[]int) {
	first := -1
	for _, row := range rows {
		for _, i := range row {
			if first < 0 {
				first = i
			} else if ra, rb := u.find(first), u.find(i); ra != rb {
				u[rb] = ra
			}
		}
	}
}

// classes lists each class's members in index order, classes numbered by
// first member, all cut from one slab.
func (u unionFind) classes() [][]int {
	id := make([]int, len(u)) // by root: class number + 1, 0 until its first member is seen
	size := make([]int, 0, len(u))
	for i := range u {
		r := u.find(i)
		if id[r] == 0 {
			size = append(size, 0)
			id[r] = len(size)
		}
		size[id[r]-1]++
	}
	slab := make([]int, len(u))
	out := make([][]int, len(size))
	for c := range out {
		out[c] = carve(&slab, size[c])[:0]
	}
	for i := range u {
		c := id[u.find(i)] - 1
		out[c] = append(out[c], i)
	}
	return out
}

// components partitions m's items into independent components (Section
// 3.3.3): items are coupled by a shared capacity set, group-count or
// localize constraint, or consistency group, and any uniformity
// constraint couples every pair. It returns nil for one component.
func components(m *model.Model) [][]int {
	if len(m.Uniform) > 0 {
		return nil
	}
	u := newUnionFind(len(m.Items))
	for _, c := range m.Capacities {
		for _, set := range c.Sets {
			u.join(set)
		}
	}
	for _, g := range m.GroupCounts {
		u.join(g.Groups...) // the shared per-slot count cap couples all groups
	}
	for _, l := range m.Localized {
		u.join(l.Groups...)
	}
	for _, grp := range m.SameSlot {
		u.join(grp)
	}
	if comps := u.classes(); len(comps) > 1 {
		return comps
	}
	return nil
}

// subModels builds one model per component over the component's own item
// numbering. components couples every row's members, so each constraint
// row lands whole in one sub-model.
func subModels(m *model.Model, comps [][]int) []*model.Model {
	comp := make([]int, len(m.Items))
	local := make([]int, len(m.Items))
	subs := make([]*model.Model, len(comps))
	for c, members := range comps {
		sub := *m
		sub.Items = make([]model.Item, len(members))
		sub.Forbidden = make([][]int, len(members))
		sub.ConflictSlots = make([][]int, len(members))
		sub.Capacities, sub.GroupCounts, sub.SameSlot, sub.Localized = nil, nil, nil, nil
		for li, i := range members {
			comp[i], local[i] = c, li
			sub.Items[li] = m.Items[i]
			if i < len(m.Forbidden) {
				sub.Forbidden[li] = m.Forbidden[i]
			}
			if i < len(m.ConflictSlots) {
				sub.ConflictSlots[li] = m.ConflictSlots[i]
			}
		}
		subs[c] = &sub
	}
	// deal hands rows out to their components, renumbered.
	deal := func(rows [][]int) [][][]int {
		out := make([][][]int, len(comps))
		for _, row := range rows {
			if len(row) > 0 {
				lr := make([]int, len(row))
				for k, i := range row {
					lr[k] = local[i]
				}
				out[comp[row[0]]] = append(out[comp[row[0]]], lr)
			}
		}
		return out
	}
	for _, c := range m.Capacities {
		for ci, rows := range deal(c.Sets) {
			if c.Sets = rows; rows != nil {
				subs[ci].Capacities = append(subs[ci].Capacities, c)
			}
		}
	}
	for _, g := range m.GroupCounts {
		for ci, rows := range deal(g.Groups) {
			if g.Groups = rows; rows != nil {
				subs[ci].GroupCounts = append(subs[ci].GroupCounts, g)
			}
		}
	}
	for _, l := range m.Localized {
		for ci, rows := range deal(l.Groups) {
			if l.Groups = rows; rows != nil {
				subs[ci].Localized = append(subs[ci].Localized, l)
			}
		}
	}
	for ci, rows := range deal(m.SameSlot) {
		subs[ci].SameSlot = rows
	}
	return subs
}

// componentError is one component's failure. It is a comparable value,
// so errors.Is matches two solves failing on the same component for the
// same reason.
type componentError struct {
	index int
	err   error
}

func (e componentError) Error() string {
	return fmt.Sprintf("solver: component %d: %v", e.index, e.err)
}

func (e componentError) Unwrap() error { return e.err }

// solveSplit solves m's components and merges their schedules.
// Options.Parallelism is the whole call's worker budget: min(k, workers)
// components run at a time, each searching with an equal share. Every
// component searches until the call's one soft deadline. A failure
// cancels the components after it and the lowest failing one is reported
// as "solver: component i: ...", so the error, like the answer, is the
// same at every worker count.
func solveSplit(ctx context.Context, m *model.Model, comps [][]int, opt Options, deadline time.Time) (model.Schedule, error) {
	subs := subModels(m, comps)
	inFlight := min(len(subs), opt.Parallelism)
	opt.Parallelism = max(1, opt.Parallelism/inFlight)

	results := make([]model.Schedule, len(subs))
	errs := make([]error, len(subs))
	cancels := make([]context.CancelFunc, len(subs))
	var mu sync.Mutex
	next, failed := 0, len(subs) // failed: the lowest failing component so far
	var wg sync.WaitGroup
	for range inFlight {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mu.Lock()
			defer mu.Unlock()
			for next < failed {
				i := next
				next++
				cctx, cancel := context.WithCancel(ctx)
				cancels[i] = cancel
				mu.Unlock()
				results[i], errs[i] = solveWhole(cctx, subs[i], opt, deadline)
				cancel()
				mu.Lock()
				if errs[i] != nil && i < failed {
					failed = i
					for _, c := range cancels[i+1 : next] {
						c()
					}
				}
			}
		}()
	}
	wg.Wait()
	if failed < len(subs) {
		return model.Schedule{}, componentError{failed, errs[failed]}
	}

	slots := make([]int, len(m.Items))
	tot := model.Schedule{Optimal: true}
	for c, r := range results {
		for li, i := range comps[c] {
			slots[i] = r.Slots[li]
		}
		tot.Optimal = tot.Optimal && r.Optimal
		tot.Warm = tot.Warm || r.Warm
		tot.Nodes += r.Nodes
		tot.Workers = max(tot.Workers, r.Workers)
		tot.DomainPrunes += r.DomainPrunes
		tot.Steals += r.Steals
		tot.Splits += r.Splits
		tot.ReplayNodes += r.ReplayNodes
	}
	return answer(m, slots, nil, tot)
}
