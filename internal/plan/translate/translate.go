// Package translate converts high-level scheduling intent into the
// low-level constraint models of internal/plan/model: the automatic
// intent-to-model translation at the heart of CORNET's change schedule
// planner (Section 3.3.2).
//
// The translation handles the decisions the paper describes:
//
//   - ESA resolution: the elementary schedulable attribute determines the
//     model's items. When the ESA is not common_id (e.g. scheduling whole
//     markets), items are the distinct attribute values weighted by their
//     element multiplicity (the "hybrid" situation of Appendix B).
//   - Sparse base->aggregate mappings Q (inventory.Mapping) drive both the
//     per-aggregate capacity rows (Eq. 5) and the linking-variable
//     group-count encoding (Eq. 2-3).
//   - Conflict attribute (CA) resolution: when the CA differs from the ESA
//     (scheduling markets while conflicts are tracked per eNodeB), the
//     conflict table is lifted through the CA->ESA mapping.
//   - Conflict scope: with a topology, conflicts propagate across
//     service-chain and cross-layer edges (a change on a vGW conflicts
//     with one on its hosting server, Section 2.2).
package translate

import (
	"fmt"
	"sort"
	"strconv"

	"cornet/internal/inventory"
	"cornet/internal/plan/intent"
	"cornet/internal/plan/model"
	"cornet/internal/topology"
)

// Options tune the translation.
type Options struct {
	// RequireAll demands a complete schedule; default allows leftovers,
	// matching Algorithm 1's behaviour of pushing overflow to the next
	// scheduling request.
	RequireAll bool
	// Topology, when set, widens conflict scope: an item inherits the
	// conflict slots of neighbors connected by ConflictScopeKinds edges
	// (default: service-chain and cross-layer).
	Topology           *topology.Graph
	ConflictScopeKinds []topology.EdgeKind
}

// Result bundles the generated model with the translation artifacts needed
// to interpret a solution.
type Result struct {
	Model *model.Model
	// Slots are the resolved timeslots backing slot indexes.
	Slots []intent.Timeslot
	// ItemElements maps each model item index to the inventory element ids
	// it represents (one id when ESA is common_id; a group otherwise).
	ItemElements [][]string
}

// Translate builds the constraint model for a request over an inventory.
func Translate(req *intent.Request, inv *inventory.Inventory, opt Options) (*Result, error) {
	if inv.Len() == 0 {
		return nil, fmt.Errorf("translate: empty inventory")
	}
	slots, err := req.Timeslots()
	if err != nil {
		return nil, err
	}
	esa := req.SchedulableAttribute

	// --- Items -----------------------------------------------------------
	var items []model.Item
	var itemElements [][]string
	itemIndex := make(map[string]int, inv.Len()) // ESA value -> item index
	// Per-element change durations: the element's duration_mw attribute,
	// falling back to the request-level change_duration (Fig. 12's
	// multi-window re-tuning and construction changes).
	elemDuration := func(id string) int {
		if e, ok := inv.Get(id); ok {
			if v, ok := e.Attr(inventory.AttrDuration); ok {
				if d, err := strconv.Atoi(v); err == nil && d > 0 {
					return d
				}
			}
		}
		if req.ChangeDuration > 0 {
			return req.ChangeDuration
		}
		return 1
	}
	if esa == inventory.AttrCommonID {
		ids := inv.IDs()
		items = make([]model.Item, 0, len(ids))
		itemElements = make([][]string, 0, len(ids))
		for k, id := range ids {
			itemIndex[id] = len(items)
			items = append(items, model.Item{ID: id, Weight: 1, Duration: elemDuration(id)})
			itemElements = append(itemElements, ids[k:k+1:k+1])
		}
	} else {
		groups := inv.GroupBy(esa)
		vals := make([]string, 0, len(groups))
		for v := range groups {
			if v != "" {
				vals = append(vals, v)
			}
		}
		sort.Strings(vals)
		if len(vals) == 0 {
			return nil, fmt.Errorf("translate: no elements carry ESA attribute %q", esa)
		}
		for _, v := range vals {
			d := 1
			for _, id := range groups[v] {
				if ed := elemDuration(id); ed > d {
					d = ed
				}
			}
			itemIndex[v] = len(items)
			items = append(items, model.Item{ID: v, Weight: len(groups[v]), Duration: d})
			itemElements = append(itemElements, groups[v])
		}
	}
	m := &model.Model{
		Name:       "cornet-" + esa,
		Items:      items,
		NumSlots:   len(slots),
		RequireAll: opt.RequireAll,
	}
	n := len(items)

	// slotDur backs the per-constraint time-granularity translation: a
	// weekly concurrency cap over daily slots becomes a 7-slot budget
	// bucket (Section 3.3.2's "different time granularity among
	// constraints").
	slotDur, err := req.SchedulingWindow.Granularity.Duration()
	if err != nil {
		return nil, err
	}
	bucketFor := func(g intent.Granularity) (int, error) {
		if g.Metric == "" {
			return 1, nil
		}
		d, err := g.Duration()
		if err != nil {
			return 0, err
		}
		if d < slotDur || d%slotDur != 0 {
			return 0, fmt.Errorf("translate: constraint granularity %v is not a multiple of the %v timeslot", d, slotDur)
		}
		return int(d / slotDur), nil
	}

	// elementItem maps an element id to its item index (itemIndex itself
	// for common_id ESA; group membership otherwise).
	elementItem := itemIndex
	if esa != inventory.AttrCommonID {
		elementItem = make(map[string]int, inv.Len())
		for idx, ids := range itemElements {
			for _, id := range ids {
				elementItem[id] = idx
			}
		}
	}

	// groupItemsBy returns item-index sets grouped by a (non-ESA) attribute,
	// deterministic order. An item lands in every group one of its
	// elements belongs to.
	groupItemsBy := func(attr string) ([][]int, []string, error) {
		if attr == esa {
			// Each item is its own group.
			groups := make([][]int, n)
			names := make([]string, n)
			for i := range groups {
				groups[i] = []int{i}
				names[i] = items[i].ID
			}
			return groups, names, nil
		}
		// Items are visited in index order, so each value's list comes out
		// sorted and a repeat can only be its last entry.
		var groups [][]int
		var names []string
		groupOf := map[string]int{}
		for idx, ids := range itemElements {
			for _, id := range ids {
				e, ok := inv.Get(id)
				if !ok {
					continue
				}
				for _, v := range e.Values(attr) {
					gi, ok := groupOf[v]
					if !ok {
						gi = len(groups)
						groupOf[v] = gi
						groups, names = append(groups, nil), append(names, v)
					}
					if g := groups[gi]; len(g) == 0 || g[len(g)-1] != idx {
						groups[gi] = append(g, idx)
					}
				}
			}
		}
		if len(groups) == 0 {
			return nil, nil, fmt.Errorf("translate: attribute %q absent from inventory", attr)
		}
		sort.Strings(names)
		sorted := make([][]int, len(names))
		for k, v := range names {
			sorted[k] = groups[groupOf[v]]
		}
		return sorted, names, nil
	}

	// --- Constraints ------------------------------------------------------
	m.ZeroConflict = !req.MinimizeConflicts()
	for ci, c := range req.Constraints {
		switch c.Name {
		case intent.ConflictHandling:
			// handled above
		case intent.Concurrency:
			bucket, err := bucketFor(c.Granularity)
			if err != nil {
				return nil, fmt.Errorf("constraint %d: %w", ci, err)
			}
			if c.BaseAttribute == esa && c.AggregateAttribute == "" {
				// Global cap on scheduled weight per budget window (Eq. 1).
				all := make([]int, n)
				for i := range all {
					all[i] = i
				}
				m.Capacities = append(m.Capacities, model.Capacity{
					Name:        fmt.Sprintf("concurrency-%d-global", ci),
					Sets:        [][]int{all},
					Cap:         c.DefaultCapacity,
					BucketSlots: bucket,
				})
			} else if c.BaseAttribute == esa {
				// Per-aggregate cap (Eq. 5): one set per aggregate value,
				// built from the sparse mapping Q.
				groups, _, err := groupItemsBy(c.AggregateAttribute)
				if err != nil {
					return nil, fmt.Errorf("constraint %d: %w", ci, err)
				}
				m.Capacities = append(m.Capacities, model.Capacity{
					Name:        fmt.Sprintf("concurrency-%d-per-%s", ci, c.AggregateAttribute),
					Sets:        groups,
					Cap:         c.DefaultCapacity,
					BucketSlots: bucket,
				})
			} else {
				// Count of distinct non-ESA base values per slot (Eq. 2-3):
				// the linking-variable encoding.
				groups, _, err := groupItemsBy(c.BaseAttribute)
				if err != nil {
					return nil, fmt.Errorf("constraint %d: %w", ci, err)
				}
				m.GroupCounts = append(m.GroupCounts, model.GroupCount{
					Name:   fmt.Sprintf("concurrency-%d-count-%s", ci, c.BaseAttribute),
					Groups: groups,
					Cap:    c.DefaultCapacity,
				})
			}
		case intent.Consistency:
			groups, _, err := groupItemsBy(c.Attribute)
			if err != nil {
				return nil, fmt.Errorf("constraint %d: %w", ci, err)
			}
			for _, g := range groups {
				if len(g) > 1 {
					m.SameSlot = append(m.SameSlot, g)
				}
			}
		case intent.Uniformity:
			vals, err := numericValues(inv, itemElements, c.Attribute)
			if err != nil {
				return nil, fmt.Errorf("constraint %d: %w", ci, err)
			}
			m.Uniform = append(m.Uniform, model.Uniform{
				Name:    fmt.Sprintf("uniformity-%d-%s", ci, c.Attribute),
				Values:  vals,
				MaxDist: c.UniformityMaxDistance(),
			})
		case intent.Localize:
			groups, _, err := groupItemsBy(c.Attribute)
			if err != nil {
				return nil, fmt.Errorf("constraint %d: %w", ci, err)
			}
			m.Localized = append(m.Localized, model.Localized{
				Name:   fmt.Sprintf("localize-%d-%s", ci, c.Attribute),
				Groups: groups,
			})
		}
	}

	// --- Frozen elements --------------------------------------------------
	m.Forbidden = make([][]int, n)
	frozen, err := req.ResolveFrozen(slots)
	if err != nil {
		return nil, err
	}
	for _, f := range frozen {
		var targets []int
		if f.Attribute == esa {
			if idx, ok := itemIndex[f.Value]; ok {
				targets = []int{idx}
			}
		} else {
			// Non-ESA freeze: map through the inventory to items.
			seen := map[int]bool{}
			for _, id := range inv.ByAttr(f.Attribute, f.Value) {
				if idx, ok := elementItem[id]; ok && !seen[idx] {
					seen[idx] = true
					targets = append(targets, idx)
				}
			}
			sort.Ints(targets)
		}
		for _, idx := range targets {
			if f.Slots == nil {
				for t := 0; t < len(slots); t++ {
					m.Forbidden[idx] = append(m.Forbidden[idx], t)
				}
			} else {
				m.Forbidden[idx] = append(m.Forbidden[idx], f.Slots...)
			}
		}
	}

	// --- Conflict table ----------------------------------------------------
	m.ConflictSlots = make([][]int, n)
	slotConflicts, err := req.SlotConflicts(slots)
	if err != nil {
		return nil, err
	}
	// Map a conflict-attribute key to item indexes. When CA == ESA this is
	// itemIndex; when CA is element-level (common_id) under a coarser ESA,
	// lift through elementItem; otherwise resolve via the inventory index.
	conflictTargets := func(key string) []int {
		if req.ConflictAttribute == esa {
			if idx, ok := itemIndex[key]; ok {
				return []int{idx}
			}
			return nil
		}
		if req.ConflictAttribute == inventory.AttrCommonID {
			if idx, ok := elementItem[key]; ok {
				return []int{idx}
			}
			return nil
		}
		seen := map[int]bool{}
		var out []int
		for _, id := range inv.ByAttr(req.ConflictAttribute, key) {
			if idx, ok := elementItem[id]; ok && !seen[idx] {
				seen[idx] = true
				out = append(out, idx)
			}
		}
		sort.Ints(out)
		return out
	}
	conflictByItem := make([]map[int]bool, n)
	addConflict := func(idx, t int) {
		if conflictByItem[idx] == nil {
			conflictByItem[idx] = map[int]bool{}
		}
		conflictByItem[idx][t] = true
	}
	for key, ts := range slotConflicts {
		for _, idx := range conflictTargets(key) {
			for _, t := range ts {
				addConflict(idx, t)
			}
		}
	}
	// Conflict scope via topology: propagate neighbor conflicts.
	if opt.Topology != nil {
		kinds := opt.ConflictScopeKinds
		if kinds == nil {
			kinds = []topology.EdgeKind{topology.ServiceChain, topology.CrossLayer}
		}
		for key, ts := range slotConflicts {
			// key resolves to element ids whose neighbors also conflict.
			var ids []string
			if req.ConflictAttribute == inventory.AttrCommonID {
				ids = []string{key}
			} else {
				ids = inv.ByAttr(req.ConflictAttribute, key)
			}
			for _, id := range ids {
				for _, nbr := range opt.Topology.Neighbors(id, kinds...) {
					if idx, ok := elementItem[nbr]; ok {
						for _, t := range ts {
							addConflict(idx, t)
						}
					}
				}
			}
		}
	}
	for idx, set := range conflictByItem {
		for t := range set {
			m.ConflictSlots[idx] = append(m.ConflictSlots[idx], t)
		}
		sort.Ints(m.ConflictSlots[idx])
	}

	m.Normalize()
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("translate: generated invalid model: %w", err)
	}
	return &Result{Model: m, Slots: slots, ItemElements: itemElements}, nil
}

// numericValues resolves a per-item numeric value for a uniformity
// attribute. Numeric attribute values (timezone offsets) parse directly;
// non-numeric values are ranked by sorted order so that MaxDist 0 means
// "identical value" and larger distances admit lexicographic neighbors.
// Multi-element items use the mean of their elements' values.
func numericValues(inv *inventory.Inventory, itemElements [][]string, attr string) ([]float64, error) {
	distinct := inv.AttrValues(attr)
	if len(distinct) == 0 {
		return nil, fmt.Errorf("translate: attribute %q absent from inventory", attr)
	}
	rank := map[string]float64{}
	allNumeric := true
	for _, v := range distinct {
		if _, err := strconv.ParseFloat(v, 64); err != nil {
			allNumeric = false
			break
		}
	}
	for i, v := range distinct {
		if allNumeric {
			f, _ := strconv.ParseFloat(v, 64)
			rank[v] = f
		} else {
			rank[v] = float64(i)
		}
	}
	out := make([]float64, len(itemElements))
	for idx, ids := range itemElements {
		sum, cnt := 0.0, 0
		for _, id := range ids {
			e, ok := inv.Get(id)
			if !ok {
				continue
			}
			for _, v := range e.Values(attr) {
				sum += rank[v]
				cnt++
			}
		}
		if cnt == 0 {
			return nil, fmt.Errorf("translate: element group %d lacks attribute %q", idx, attr)
		}
		out[idx] = sum / float64(cnt)
	}
	return out, nil
}

// Assignment materializes a solved schedule back into element terms: per
// timeslot, the element ids scheduled there, plus leftovers.
type Assignment struct {
	BySlot    map[int][]string
	Leftovers []string
	Slots     []intent.Timeslot
}

// Expand converts a model schedule into an element-level assignment.
func (r *Result) Expand(s model.Schedule) Assignment {
	a := Assignment{BySlot: map[int][]string{}, Slots: r.Slots}
	for idx, t := range s.Slots {
		if t < 0 {
			a.Leftovers = append(a.Leftovers, r.ItemElements[idx]...)
			continue
		}
		a.BySlot[t] = append(a.BySlot[t], r.ItemElements[idx]...)
	}
	for t := range a.BySlot {
		sort.Strings(a.BySlot[t])
	}
	sort.Strings(a.Leftovers)
	return a
}
