// Package model defines CORNET's low-level constraint-model intermediate
// representation: the role MiniZinc models play in the paper (Section 3.3.2
// and Appendix B). The translate package builds these models dynamically
// from high-level intent; the solver package searches them; Render emits a
// human-readable MiniZinc-style listing for inspection and debugging.
//
// The decision variables are implicit: x[i][t] in {0,1} meaning item i is
// scheduled on timeslot t, with each item scheduled at most once. Derived
// group variables (the paper's linking variables y[m][t]) appear when a
// GroupCount constraint is present; Stats reports how many variables and
// constraints each encoding implies, the quantity the translation's
// sparse-vs-dense decisions trade off.
package model

import (
	"fmt"
	"sort"
	"strings"
)

// Item is one schedulable unit (an ESA instance, or every element that
// shares one value of the schedulable attribute). Weight is the number of
// underlying elements it represents: capacity consumption and completion
// time are weighted by it. Duration is the change's length in maintenance
// windows (Table 1: node re-tuning averages ~4 MWs): an item placed at
// slot t occupies [t, t+Duration), consuming capacity and honouring
// forbidden/conflict slots across the whole span. Zero means 1.
type Item struct {
	ID       string
	Weight   int
	Duration int
}

// Capacity bounds, for every time bucket and every item set, the scheduled
// weight:  sum_{i in Set, t in bucket} w_i * x[i][t] <= Cap.
// A single global concurrency constraint uses one set holding all items;
// a per-aggregate constraint (<=150 per market) uses one set per market.
// BucketSlots widens the accounting window: 1 (the default) is a per-slot
// cap; 7 over daily slots expresses a weekly cap — the per-constraint
// time-granularity translation complication of Section 3.3.2.
type Capacity struct {
	Name        string
	Sets        [][]int // item indexes
	Cap         int
	BucketSlots int // consecutive slots sharing one budget (default 1)
}

// Bucket maps a slot to its capacity bucket index.
func (c Capacity) Bucket(slot int) int {
	if c.BucketSlots <= 1 {
		return slot
	}
	return slot / c.BucketSlots
}

// NumBuckets reports how many budget windows a horizon of numSlots has.
func (c Capacity) NumBuckets(numSlots int) int {
	if c.BucketSlots <= 1 {
		return numSlots
	}
	return (numSlots + c.BucketSlots - 1) / c.BucketSlots
}

// GroupCount bounds, for every timeslot, the number of distinct groups with
// at least one scheduled item:  sum_g y[g][t] <= Cap, with the linking
// constraints y[g][t] >= x[i][t] for every item i in group g (Eq. 2-3 of
// the paper). This is the encoding that introduces new decision variables.
type GroupCount struct {
	Name   string
	Groups [][]int
	Cap    int
}

// Uniform requires all items scheduled in the same timeslot to have
// numeric attribute values within MaxDist of each other (Listing 2's
// timezone constraint: |tz_i - tz_j| * x_i,t * x_j,t <= MaxDist).
type Uniform struct {
	Name    string
	Values  []float64 // per item
	MaxDist float64
}

// Localized forbids interleaving of groups: the slot ranges used by two
// different groups must not overlap (the MARKET_START_TIME/END_TIME
// disjunction of Listing 2).
type Localized struct {
	Name   string
	Groups [][]int
}

// Model is one dynamically-generated scheduling model.
type Model struct {
	Name     string
	Items    []Item
	NumSlots int

	// RequireAll demands every item be scheduled; otherwise items may be
	// left over (pushed to a later scheduling request) at SkipPenalty
	// weighted cost each.
	RequireAll  bool
	SkipPenalty int

	Capacities  []Capacity
	GroupCounts []GroupCount
	SameSlot    [][]int // consistency groups: all members share one slot
	Uniform     []Uniform
	Localized   []Localized

	// Forbidden[i] lists slots item i must not use (frozen elements; and
	// conflict slots under zero tolerance).
	Forbidden [][]int
	// ConflictSlots[i] lists slots where scheduling item i collides with an
	// existing change ticket. Under zero tolerance these are forbidden;
	// under minimize-conflicts each collision costs BigM in the objective.
	ConflictSlots [][]int
	ZeroConflict  bool
	// BigM dominates the completion-time term so that conflict count is
	// minimized lexicographically first (Listing 2's objective).
	BigM int
}

// Normalize fills defaults and sorts slot lists; call after construction.
func (m *Model) Normalize() {
	if m.SkipPenalty == 0 {
		m.SkipPenalty = 2 * (m.NumSlots + 1)
	}
	if m.BigM == 0 {
		// max capacity-weighted completion: every item at the last slot.
		total := 0
		for _, it := range m.Items {
			w := it.Weight
			if w <= 0 {
				w = 1
			}
			total += w
		}
		m.BigM = total*(m.NumSlots+1) + m.SkipPenalty*total + 1
	}
	if m.Forbidden == nil {
		m.Forbidden = make([][]int, len(m.Items))
	}
	if m.ConflictSlots == nil {
		m.ConflictSlots = make([][]int, len(m.Items))
	}
	for i := range m.Forbidden {
		sort.Ints(m.Forbidden[i])
	}
	for i := range m.ConflictSlots {
		sort.Ints(m.ConflictSlots[i])
	}
}

// Validate checks index ranges and structural invariants.
func (m *Model) Validate() error {
	n := len(m.Items)
	if n == 0 {
		return fmt.Errorf("model: no items")
	}
	if m.NumSlots <= 0 {
		return fmt.Errorf("model: NumSlots must be positive")
	}
	seen := make(map[string]bool, n)
	for i, it := range m.Items {
		if it.ID == "" {
			return fmt.Errorf("model: item %d has empty id", i)
		}
		if seen[it.ID] {
			return fmt.Errorf("model: duplicate item id %q", it.ID)
		}
		seen[it.ID] = true
		if it.Weight < 0 {
			return fmt.Errorf("model: item %q has negative weight", it.ID)
		}
		if it.Duration < 0 {
			return fmt.Errorf("model: item %q has negative duration", it.ID)
		}
		if it.Duration > m.NumSlots {
			return fmt.Errorf("model: item %q duration %d exceeds the %d-slot window", it.ID, it.Duration, m.NumSlots)
		}
	}
	for _, c := range m.Capacities {
		if c.BucketSlots < 0 {
			return fmt.Errorf("model: capacity %q negative bucket width", c.Name)
		}
	}
	checkSet := func(ctx string, set []int) error {
		for _, idx := range set {
			if idx < 0 || idx >= n {
				return fmt.Errorf("model: %s references item index %d out of range [0,%d)", ctx, idx, n)
			}
		}
		return nil
	}
	for _, c := range m.Capacities {
		if c.Cap < 0 {
			return fmt.Errorf("model: capacity %q negative", c.Name)
		}
		for _, s := range c.Sets {
			if err := checkSet("capacity "+c.Name, s); err != nil {
				return err
			}
		}
	}
	for _, g := range m.GroupCounts {
		if g.Cap < 0 {
			return fmt.Errorf("model: group-count %q negative", g.Name)
		}
		for _, s := range g.Groups {
			if err := checkSet("group-count "+g.Name, s); err != nil {
				return err
			}
		}
	}
	for _, grp := range m.SameSlot {
		if err := checkSet("same-slot", grp); err != nil {
			return err
		}
	}
	for _, u := range m.Uniform {
		if len(u.Values) != n {
			return fmt.Errorf("model: uniform %q has %d values for %d items", u.Name, len(u.Values), n)
		}
		if u.MaxDist < 0 {
			return fmt.Errorf("model: uniform %q negative distance", u.Name)
		}
	}
	for _, l := range m.Localized {
		for _, g := range l.Groups {
			if err := checkSet("localized "+l.Name, g); err != nil {
				return err
			}
		}
	}
	if len(m.Forbidden) != 0 && len(m.Forbidden) != n {
		return fmt.Errorf("model: Forbidden length %d != items %d", len(m.Forbidden), n)
	}
	if len(m.ConflictSlots) != 0 && len(m.ConflictSlots) != n {
		return fmt.Errorf("model: ConflictSlots length %d != items %d", len(m.ConflictSlots), n)
	}
	for i, fs := range m.Forbidden {
		for _, t := range fs {
			if t < 0 || t >= m.NumSlots {
				return fmt.Errorf("model: item %d forbidden slot %d out of range", i, t)
			}
		}
	}
	for i, cs := range m.ConflictSlots {
		for _, t := range cs {
			if t < 0 || t >= m.NumSlots {
				return fmt.Errorf("model: item %d conflict slot %d out of range", i, t)
			}
		}
	}
	return nil
}

// Stats quantifies the model size: the paper's sparse-vs-dense translation
// decisions (Section 3.3.2) compare exactly these numbers.
type Stats struct {
	PrimaryVars int // x[i][t]
	DerivedVars int // y[g][t] from GroupCount linking
	Constraints int // scalar constraint rows after expansion
	LinkRows    int // linking rows y >= x
}

// Stats computes the expanded model size.
func (m *Model) Stats() Stats {
	var s Stats
	n := len(m.Items)
	s.PrimaryVars = n * m.NumSlots
	s.Constraints += n // at-most-once rows
	for _, c := range m.Capacities {
		s.Constraints += len(c.Sets) * c.NumBuckets(m.NumSlots)
	}
	for _, g := range m.GroupCounts {
		s.DerivedVars += len(g.Groups) * m.NumSlots
		s.Constraints += m.NumSlots // the per-slot count row
		for _, grp := range g.Groups {
			s.LinkRows += len(grp) * m.NumSlots
		}
	}
	s.Constraints += s.LinkRows
	for _, grp := range m.SameSlot {
		if len(grp) > 1 {
			s.Constraints += (len(grp) - 1) * m.NumSlots
		}
	}
	for _, u := range m.Uniform {
		_ = u
		// pairwise products per slot: n*(n-1)/2 rows per slot (dense!).
		s.Constraints += (n * (n - 1) / 2) * m.NumSlots
	}
	for _, l := range m.Localized {
		g := len(l.Groups)
		s.Constraints += g * (g - 1) / 2 // pairwise disjunctions
	}
	for _, fs := range m.Forbidden {
		s.Constraints += len(fs)
	}
	return s
}

// Render emits a MiniZinc-flavoured listing of the model, close to the
// Appendix B Listing 2 style. It is for human inspection and golden tests;
// the solver consumes the structured form directly.
func (m *Model) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%% model: %s\n", m.Name)
	fmt.Fprintf(&b, "int: n_items = %d;\n", len(m.Items))
	fmt.Fprintf(&b, "int: n_timeslots = %d;\n", m.NumSlots)
	fmt.Fprintf(&b, "array[1..n_items, 1..n_timeslots] of var 0..1: X :: add_to_output;\n")
	b.WriteString("\n% at-most-once")
	if m.RequireAll {
		b.WriteString(" (require-all)")
	}
	b.WriteString("\nconstraint forall(i in 1..n_items)(\n")
	if m.RequireAll {
		b.WriteString("  sum(t in 1..n_timeslots)(X[i,t]) == 1\n);\n")
	} else {
		b.WriteString("  sum(t in 1..n_timeslots)(X[i,t]) <= 1\n);\n")
	}
	for _, c := range m.Capacities {
		if c.BucketSlots > 1 {
			fmt.Fprintf(&b, "\n%% capacity: %s (%d sets, cap %d per %d-slot window)\n", c.Name, len(c.Sets), c.Cap, c.BucketSlots)
			fmt.Fprintf(&b, "constraint forall(w in 1..%d, s in SETS_%s)(\n  sum(i in s, t in window(w))(weight[i]*X[i,t]) <= %d\n);\n",
				c.NumBuckets(m.NumSlots), sanitize(c.Name), c.Cap)
			continue
		}
		fmt.Fprintf(&b, "\n%% capacity: %s (%d sets, cap %d)\n", c.Name, len(c.Sets), c.Cap)
		fmt.Fprintf(&b, "constraint forall(t in 1..n_timeslots, s in SETS_%s)(\n  sum(i in s)(weight[i]*X[i,t]) <= %d\n);\n",
			sanitize(c.Name), c.Cap)
	}
	for _, g := range m.GroupCounts {
		gn := sanitize(g.Name)
		fmt.Fprintf(&b, "\n%% group-count: %s (%d groups, cap %d) with linking variables\n", g.Name, len(g.Groups), g.Cap)
		fmt.Fprintf(&b, "array[1..%d, 1..n_timeslots] of var 0..1: Y_%s;\n", len(g.Groups), gn)
		fmt.Fprintf(&b, "constraint forall(g in GROUPS_%s, i in g, t in 1..n_timeslots)(Y_%s[g,t] >= X[i,t]);\n", gn, gn)
		fmt.Fprintf(&b, "constraint forall(t in 1..n_timeslots)(sum(g in 1..%d)(Y_%s[g,t]) <= %d);\n", len(g.Groups), gn, g.Cap)
	}
	for gi, grp := range m.SameSlot {
		if len(grp) < 2 {
			continue
		}
		fmt.Fprintf(&b, "\n%% consistency group %d: items %v share a timeslot\n", gi, onesBased(grp))
		fmt.Fprintf(&b, "constraint forall(t in 1..n_timeslots)(")
		for j := 1; j < len(grp); j++ {
			if j > 1 {
				b.WriteString(" /\\ ")
			}
			fmt.Fprintf(&b, "X[%d,t] == X[%d,t]", grp[0]+1, grp[j]+1)
		}
		b.WriteString(");\n")
	}
	for _, u := range m.Uniform {
		fmt.Fprintf(&b, "\n%% uniformity: %s, max distance %g\n", u.Name, u.MaxDist)
		fmt.Fprintf(&b, "constraint forall(t in 1..n_timeslots, i,j in 1..n_items where i < j)(\n")
		fmt.Fprintf(&b, "  abs(val_%s[i] - val_%s[j]) * (X[i,t] * X[j,t]) <= %g\n);\n",
			sanitize(u.Name), sanitize(u.Name), u.MaxDist)
	}
	for _, l := range m.Localized {
		fmt.Fprintf(&b, "\n%% localize: %s (%d groups, ranges must not interleave)\n", l.Name, len(l.Groups))
		fmt.Fprintf(&b, "constraint forall(g,h in GROUPS_%s where g < h)(\n", sanitize(l.Name))
		b.WriteString("  END[g] <= START[h] \\/ END[h] <= START[g]\n);\n")
	}
	nForbidden := 0
	for i, fs := range m.Forbidden {
		for _, t := range fs {
			if nForbidden < 20 { // keep listings readable
				fmt.Fprintf(&b, "constraint X[%d,%d] == 0; %% frozen/forbidden\n", i+1, t+1)
			}
			nForbidden++
		}
	}
	if nForbidden >= 20 {
		fmt.Fprintf(&b, "%% ... %d forbidden placements total\n", nForbidden)
	}
	nConf := 0
	for _, cs := range m.ConflictSlots {
		nConf += len(cs)
	}
	if nConf > 0 {
		mode := "penalized (minimize-conflicts)"
		if m.ZeroConflict {
			mode = "forbidden (zero tolerance)"
		}
		fmt.Fprintf(&b, "%% conflict table: %d (item,slot) collisions, %s\n", nConf, mode)
	}
	fmt.Fprintf(&b, "\nfloat: BIGM = %d;\n", m.BigM)
	b.WriteString("solve minimize\n  BIGM * NUM_CONFLICTS +\n")
	b.WriteString("  sum(i in 1..n_items, t in 1..n_timeslots)(weight[i] * t * X[i,t]) +\n")
	fmt.Fprintf(&b, "  %d * sum(i in 1..n_items)(weight[i] * (1 - sum(t in 1..n_timeslots)(X[i,t])));\n", m.SkipPenalty)
	return b.String()
}

func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			return r
		default:
			return '_'
		}
	}, s)
}

func onesBased(xs []int) []int {
	out := make([]int, len(xs))
	for i, x := range xs {
		out[i] = x + 1
	}
	return out
}

// Schedule is a solution: per item the assigned slot, or -1 for leftover
// (unscheduled) items.
type Schedule struct {
	Slots []int
	// Objective components for reporting.
	Conflicts   int
	Makespan    int // highest used slot index + 1; 0 if nothing scheduled
	Unscheduled int
	Cost        int64
	// Optimal reports whether the search proved optimality (vs. hitting a
	// limit with the best incumbent).
	Optimal bool
	Nodes   int64 // search nodes explored
	// Workers is the parallel search worker count that produced the
	// schedule (0 when the producer predates parallel search).
	Workers int
	// DomainPrunes counts start slots removed from block domains by the
	// solver's capacity forward-checking (0 for producers without domain
	// propagation, e.g. the heuristic backend).
	DomainPrunes int64
	// Steals counts subtree tasks taken by idle workers from peers'
	// deques during a work-stealing parallel search (0 when sequential).
	Steals int64
	// Splits counts search nodes published as stealable subtree
	// descriptors during a work-stealing parallel search.
	Splits int64
	// ReplayNodes counts prefix decisions thieves replayed onto their own
	// state to reconstruct stolen subtrees (the load-balancing overhead).
	ReplayNodes int64
	// Warm reports that the search was seeded with a feasible incumbent
	// from a previous solve (warm-start re-planning) instead of starting
	// from an unbounded incumbent.
	Warm bool
}

// Weight returns item i's effective weight (>=1).
func (m *Model) Weight(i int) int {
	w := m.Items[i].Weight
	if w <= 0 {
		return 1
	}
	return w
}

// Duration returns item i's effective duration in slots (>=1).
func (m *Model) Duration(i int) int {
	d := m.Items[i].Duration
	if d <= 0 {
		return 1
	}
	return d
}

// Evaluate computes the objective and components of an assignment,
// returning an error if slots are out of range. It does NOT check
// feasibility (use Check).
func (m *Model) Evaluate(slots []int) (Schedule, error) {
	if len(slots) != len(m.Items) {
		return Schedule{}, fmt.Errorf("model: assignment length %d != %d items", len(slots), len(m.Items))
	}
	s := Schedule{Slots: append([]int(nil), slots...)}
	var cost int64
	for i, t := range slots {
		w := int64(m.Weight(i))
		d := m.Duration(i)
		if t == -1 {
			s.Unscheduled++
			cost += int64(m.SkipPenalty) * w
			continue
		}
		if t < 0 || t >= m.NumSlots {
			return Schedule{}, fmt.Errorf("model: item %d slot %d out of range", i, t)
		}
		cost += int64(t+d) * w
		if t+d > s.Makespan {
			s.Makespan = t + d
		}
		for k := 0; k < d; k++ {
			if i < len(m.ConflictSlots) && containsInt(m.ConflictSlots[i], t+k) {
				s.Conflicts++
			}
		}
	}
	s.Cost = cost + int64(m.BigM)*int64(s.Conflicts)
	return s, nil
}

// Violation describes one broken constraint found by Check.
type Violation struct {
	Kind   string
	Detail string
}

// Check verifies an assignment against every constraint, returning all
// violations (empty means feasible). Shared by the solver's tests and the
// heuristic's output validation.
func (m *Model) Check(slots []int) []Violation {
	var out []Violation
	add := func(kind, format string, args ...any) {
		out = append(out, Violation{Kind: kind, Detail: fmt.Sprintf(format, args...)})
	}
	if len(slots) != len(m.Items) {
		add("arity", "assignment length %d != %d items", len(slots), len(m.Items))
		return out
	}
	for i, t := range slots {
		if t == -1 {
			if m.RequireAll {
				add("require-all", "item %s unscheduled", m.Items[i].ID)
			}
			continue
		}
		d := m.Duration(i)
		if t < 0 || t+d > m.NumSlots {
			add("range", "item %s occupies [%d,%d) outside the %d-slot window", m.Items[i].ID, t, t+d, m.NumSlots)
			continue
		}
		for k := 0; k < d; k++ {
			if i < len(m.Forbidden) && containsInt(m.Forbidden[i], t+k) {
				add("forbidden", "item %s occupies forbidden slot %d", m.Items[i].ID, t+k)
			}
			if m.ZeroConflict && i < len(m.ConflictSlots) && containsInt(m.ConflictSlots[i], t+k) {
				add("conflict", "item %s occupies conflicting slot %d under zero tolerance", m.Items[i].ID, t+k)
			}
		}
	}
	for _, c := range m.Capacities {
		for si, set := range c.Sets {
			use := map[int]int{}
			for _, i := range set {
				if t := slots[i]; t >= 0 {
					for k := 0; k < m.Duration(i); k++ {
						use[c.Bucket(t+k)] += m.Weight(i)
					}
				}
			}
			for b, u := range use {
				if u > c.Cap {
					add("capacity", "%s set %d bucket %d: %d > cap %d", c.Name, si, b, u, c.Cap)
				}
			}
		}
	}
	for _, g := range m.GroupCounts {
		active := map[int]map[int]bool{}
		for gi, grp := range g.Groups {
			for _, i := range grp {
				if t := slots[i]; t >= 0 {
					for k := 0; k < m.Duration(i); k++ {
						if active[t+k] == nil {
							active[t+k] = map[int]bool{}
						}
						active[t+k][gi] = true
					}
				}
			}
		}
		for t, gs := range active {
			if len(gs) > g.Cap {
				add("group-count", "%s slot %d: %d groups > cap %d", g.Name, t, len(gs), g.Cap)
			}
		}
	}
	for gi, grp := range m.SameSlot {
		first := -2
		for _, i := range grp {
			if first == -2 {
				first = slots[i]
			} else if slots[i] != first {
				add("consistency", "group %d items differ: %s=%d vs %s=%d",
					gi, m.Items[grp[0]].ID, first, m.Items[i].ID, slots[i])
				break
			}
		}
	}
	for _, u := range m.Uniform {
		lo := map[int]float64{}
		hi := map[int]float64{}
		init := map[int]bool{}
		for i, t := range slots {
			if t < 0 {
				continue
			}
			v := u.Values[i]
			for k := 0; k < m.Duration(i); k++ {
				tt := t + k
				if !init[tt] {
					lo[tt], hi[tt], init[tt] = v, v, true
					continue
				}
				if v < lo[tt] {
					lo[tt] = v
				}
				if v > hi[tt] {
					hi[tt] = v
				}
			}
		}
		for t := range init {
			if hi[t]-lo[t] > u.MaxDist {
				add("uniformity", "%s slot %d spread %.2f > %.2f", u.Name, t, hi[t]-lo[t], u.MaxDist)
			}
		}
	}
	for _, l := range m.Localized {
		type rng struct{ lo, hi int }
		var ranges []rng
		for _, grp := range l.Groups {
			lo, hi := -1, -1
			for _, i := range grp {
				if t := slots[i]; t >= 0 {
					end := t + m.Duration(i) - 1
					if lo == -1 || t < lo {
						lo = t
					}
					if end > hi {
						hi = end
					}
				}
			}
			if lo != -1 {
				ranges = append(ranges, rng{lo, hi})
			}
		}
		// Matching Listing 2's disjunction END[g] <= START[h], sharing a
		// boundary slot is allowed; strict interior overlap is not.
		for a := 0; a < len(ranges); a++ {
			for b := a + 1; b < len(ranges); b++ {
				if ranges[a].lo < ranges[b].hi && ranges[b].lo < ranges[a].hi {
					add("localize", "%s group ranges [%d,%d] and [%d,%d] interleave",
						l.Name, ranges[a].lo, ranges[a].hi, ranges[b].lo, ranges[b].hi)
				}
			}
		}
	}
	return out
}

func containsInt(sorted []int, x int) bool {
	lo, hi := 0, len(sorted)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case sorted[mid] < x:
			lo = mid + 1
		case sorted[mid] > x:
			hi = mid
		default:
			return true
		}
	}
	return false
}
