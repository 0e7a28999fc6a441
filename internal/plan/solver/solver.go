// Package solver implements the optimization-solver building block: a
// constraint-programming branch-and-bound search over the dynamically
// generated scheduling models of internal/plan/model. It plays the role
// OR-Tools / CBC play behind MiniZinc in the paper (Section 3.3).
//
// The search assigns items (or whole consistency groups) to timeslots,
// picking the unassigned block with the fewest live start slots first
// (fail-first over per-block slot-domain bitsets) and trying candidate
// slots in ascending incremental-cost order so good incumbents land early.
// Capacity, group-count, uniformity, and localize state propagate
// incrementally through a preallocated undo arena, capacity saturation
// forward-checks member domains, and two lower bounds prune: an additive
// per-block one (cheapest live slot or skip, summed over unassigned
// blocks) and, where a capacity set holds every item, a packing one (the
// unassigned weight poured into that set's free room, cheapest slot
// first), which is what proves a capacity-bound optimum. The objective
// matches Listing 2: BigM * conflicts + weighted completion time + skip
// penalties, so conflict count is lexicographically minimized first.
//
// As in the paper, dense constraint templates (uniformity, localize) make
// the search work much harder than sparse capacity rows; Section 4.2's
// discovery-time blow-up reproduces directly from this behaviour.
package solver

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"time"

	"cornet/internal/plan/model"
)

const (
	// failFirstWindow bounds the fail-first scan: the selector examines at
	// most this many unassigned blocks (in static most-constrained order)
	// for the smallest live domain, keeping selection O(1) per node.
	failFirstWindow = 8
	// fcMaxMembers disables capacity forward-checking for (capacity, set)
	// pairs with more member blocks than this: clearing hundreds of
	// domains on every saturation costs more than the feasible() calls it
	// saves.
	fcMaxMembers = 64
)

// Options bound the search.
type Options struct {
	// MaxNodes limits search nodes (0 = default 2e6). With parallel
	// workers the limit is global: workers flush their local counts into a
	// shared total and stop once it is exhausted.
	MaxNodes int64
	// TimeLimit caps wall-clock search time (0 = default 10s).
	TimeLimit time.Duration
	// FirstSolutionOnly returns the greedy incumbent without proving
	// optimality; used by scale experiments. Forces a single worker so the
	// greedy result stays deterministic.
	FirstSolutionOnly bool
	// Parallelism is the search worker count. Workers share one
	// rank-ordered incumbent bound and balance load by work stealing:
	// busy workers publish open subtrees into per-worker deques and idle
	// workers steal, replaying the stolen prefix onto their own state.
	// 0 means GOMAXPROCS; 1 runs the classic sequential search. Results
	// are parallelism-invariant: a completed search reports the same
	// cost and slot vector at every worker count.
	Parallelism int
	// OnIncumbent, when set, is called each time the search publishes a
	// strictly better incumbent, with its cost and the observed global node
	// count at publication. It may run concurrently from parallel workers
	// (under the incumbent lock) and must be fast and non-blocking; the
	// planning engine uses it to emit incumbent-improvement trace events.
	OnIncumbent func(cost, nodes int64)
	// OnSteal, when set, is called once when a parallel search finishes,
	// with the run's work-stealing totals: tasks stolen by idle workers,
	// subtree descriptors published for stealing, and prefix decisions
	// replayed by thieves. Sequential searches never call it; the
	// planning engine uses it to emit a steal-rate trace event.
	OnSteal func(steals, splits, replayNodes int64)
	// WarmSlots seeds the search with a known schedule from a previous
	// solve of a similar model, keyed by item ID (slot index, or -1 for a
	// deliberate leftover; items absent from the map start unscheduled).
	// When the seeded assignment is feasible for THIS model it becomes the
	// initial incumbent — the search starts with its cost as the upper
	// bound instead of +inf, pruning everything the cached solution
	// already dominates (warm-start re-planning). An infeasible or
	// ill-fitting seed is silently ignored: warm starts are an
	// optimization, never a correctness input.
	WarmSlots map[string]int
}

func (o Options) withDefaults() Options {
	if o.MaxNodes == 0 {
		o.MaxNodes = 2_000_000
	}
	if o.TimeLimit == 0 {
		o.TimeLimit = 10 * time.Second
	}
	return o
}

// ErrInfeasible is returned when no feasible assignment exists within the
// explored space (only proven when the search completes).
var ErrInfeasible = errors.New("solver: model is infeasible")

// SolveContext searches the model and returns the best schedule found.
//
// The search honours two distinct time bounds: Options.TimeLimit expiry
// returns the best incumbent found so far (soft budget), while ctx
// cancellation aborts the search with an error wrapping ctx.Err() (hard
// stop — the portfolio engine uses this to kill losing backends). A ctx
// deadline that undercuts TimeLimit tightens the soft budget instead, so
// -timeout flags and HTTP request deadlines yield the incumbent rather
// than an error.
//
// With Options.Parallelism != 1 the search runs on work-stealing
// workers sharing one rank-ordered incumbent bound (see DESIGN.md §15).
// A completed parallel search proves the same optimal cost as the
// sequential one, and among equal-cost optima it reports the exact slot
// vector the sequential depth-first search would: the incumbent is
// tie-broken on the canonical decision-order rank of the solution, so
// results do not depend on worker count or steal interleaving.
func SolveContext(ctx context.Context, m *model.Model, opt Options) (model.Schedule, error) {
	if err := ctx.Err(); err != nil {
		return model.Schedule{}, fmt.Errorf("solver: %w", err)
	}
	opt = opt.withDefaults()
	m.Normalize()
	if err := m.Validate(); err != nil {
		return model.Schedule{}, err
	}
	s := newState(m, opt)
	s.ctx = ctx
	if len(opt.WarmSlots) > 0 {
		if slots, cost, ok := warmIncumbent(m, s.blocks, opt.WarmSlots); ok {
			s.bestSlots, s.bestCost, s.warm = slots, cost, true
		}
	}
	if d, ok := ctx.Deadline(); ok {
		// Stop slightly ahead of the context's hard deadline so the search
		// returns its incumbent instead of racing ctx.Err() in checkBudget.
		soft := time.Now().Add(time.Until(d) * 9 / 10)
		if soft.Before(s.deadline) {
			s.deadline = soft
		}
	}
	workers := opt.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if opt.FirstSolutionOnly {
		workers = 1 // keep the greedy incumbent deterministic
	}
	// A root the bound already closes is a one-node search: run it here
	// instead of cloning a state per worker to prune the same node.
	if workers > 1 && len(s.order) > 0 && !s.rootClosed() {
		return solveParallel(ctx, m, opt, s, workers)
	}
	s.search(0)
	if s.ctxErr != nil {
		return model.Schedule{}, fmt.Errorf("solver: search aborted after %d nodes: %w", s.nodes, s.ctxErr)
	}
	if s.bestSlots == nil {
		if s.complete {
			return model.Schedule{}, ErrInfeasible
		}
		return model.Schedule{}, fmt.Errorf("solver: no feasible solution within limits (%d nodes)", s.nodes)
	}
	sched, err := m.Evaluate(s.bestSlots)
	if err != nil {
		return model.Schedule{}, err
	}
	sched.Optimal = s.complete
	sched.Nodes = s.nodes
	sched.Workers = 1
	sched.DomainPrunes = s.domPrunes
	sched.Warm = s.warm
	if v := m.Check(s.bestSlots); len(v) > 0 {
		return model.Schedule{}, fmt.Errorf("solver: internal error, produced infeasible schedule: %v", v[0])
	}
	return sched, nil
}

// warmIncumbent maps a cached item-ID assignment onto m's item order and
// validates it as a feasible schedule for m. Items absent from the seed
// (or mapped to -1) stay unscheduled, and so does every member of a block
// whose members the seed puts in different slots: a partly edited
// consistency group starts unseeded instead of contradicting itself.
// Reports ok=false — warm start skipped — when the seed violates any of
// m's constraints, which covers every delta the re-planning path can
// produce: RequireAll models missing an item, shrunk windows, new
// forbidden slots, tightened capacities.
func warmIncumbent(m *model.Model, blocks []block, seed map[string]int) ([]int, int64, bool) {
	slots := make([]int, len(m.Items))
	for i := range m.Items {
		t, ok := seed[m.Items[i].ID]
		if !ok {
			t = -1
		}
		slots[i] = t
	}
	for _, b := range blocks {
		for _, i := range b.items[1:] {
			if slots[i] != slots[b.items[0]] {
				for _, j := range b.items {
					slots[j] = -1
				}
				break
			}
		}
	}
	if len(m.Check(slots)) > 0 {
		return nil, 0, false
	}
	sched, err := m.Evaluate(slots)
	if err != nil {
		return nil, 0, false
	}
	return slots, sched.Cost, true
}

// solveParallel runs the work-stealing parallel search: worker 0 owns
// the root task, every worker publishes open subtrees into its deque as
// it descends, and idle workers steal the costlier half of the
// shallowest open descriptor, replay its prefix onto their own arena
// state, and search it — all pruning against the shared rank-ordered
// incumbent (see worksteal.go and DESIGN.md §15).
func solveParallel(ctx context.Context, m *model.Model, opt Options, base *state, workers int) (model.Schedule, error) {
	sh := &sharedSearch{onIncumbent: opt.OnIncumbent}
	sh.deques = make([]wsDeque, workers)
	// Seed active with worker 0's root task before any worker starts, so
	// workers launched first cannot observe active == 0 and exit early.
	sh.active.Store(1)
	if base.bestSlots != nil {
		// Warm start: the seeded incumbent becomes the shared bound every
		// worker prunes against from its first node. Its nil rank vector
		// makes it rank-minimal: only a strictly cheaper solution may
		// displace it, matching the sequential warm contract.
		sh.rec.Store(&incumbentRec{cost: base.bestCost, slots: base.bestSlots})
	}
	states := make([]*state, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		ws := base.clone()
		ws.ctx = ctx
		ws.shared = sh
		ws.wid = w
		ws.path = make([]step, len(ws.order))
		ws.relAt = make([]int8, len(ws.order)+1)
		ws.replayBuf = make([]replayFrame, 0, len(ws.order))
		states[w] = ws
		wg.Add(1)
		go func(ws *state) {
			defer wg.Done()
			ws.wsWorker()
		}(ws)
	}
	wg.Wait()
	nodes := sh.nodes.Load()
	complete := true
	var ctxErr error
	var prunes, steals, splits, replay int64
	for _, ws := range states {
		complete = complete && ws.complete
		prunes += ws.domPrunes
		steals += ws.steals
		splits += ws.splits
		replay += ws.replayNodes
		if ws.ctxErr != nil && ctxErr == nil {
			ctxErr = ws.ctxErr
		}
	}
	if opt.OnSteal != nil {
		opt.OnSteal(steals, splits, replay)
	}
	if ctxErr != nil {
		return model.Schedule{}, fmt.Errorf("solver: search aborted after %d nodes: %w", nodes, ctxErr)
	}
	rec := sh.rec.Load()
	if rec == nil {
		if complete {
			return model.Schedule{}, ErrInfeasible
		}
		return model.Schedule{}, fmt.Errorf("solver: no feasible solution within limits (%d nodes)", nodes)
	}
	sched, err := m.Evaluate(rec.slots)
	if err != nil {
		return model.Schedule{}, err
	}
	sched.Optimal = complete
	sched.Nodes = nodes
	sched.Workers = workers
	sched.DomainPrunes = prunes
	sched.Steals = steals
	sched.Splits = splits
	sched.ReplayNodes = replay
	sched.Warm = base.warm
	if v := m.Check(rec.slots); len(v) > 0 {
		return model.Schedule{}, fmt.Errorf("solver: internal error, produced infeasible schedule: %v", v[0])
	}
	return sched, nil
}

// block is the search unit: a consistency group or a singleton item.
type block struct {
	items  []int
	weight int
	// duration is the longest member duration: the block occupies
	// [t, t+duration) (shorter members finish earlier but the block's
	// group/uniformity footprint conservatively spans the full range).
	duration int
	// costConst is sum(weight_i * duration_i): placing at t costs
	// t*weight + costConst.
	costConst int64
	// capUse lists, per capacity constraint set the block touches, the
	// weight it adds at each slot offset (wOff[k] = summed weight of
	// members still active k slots after the start).
	capUse []capUse
	// gcGroups lists (groupCount index, group index) memberships.
	gcGroups [][2]int
	// uniLo/uniHi per uniformity constraint: the block's own value range.
	uniLo, uniHi []float64
	// locGroups lists (localize index, group index) memberships.
	locGroups [][2]int
	// conflictCount[t] = member-slot collisions when starting at t; nil
	// when the block has no conflicting member (dense by slot — the map it
	// replaces dominated the hot placement path).
	conflictCount []int
	// costAt[t] is the exact incremental cost of starting at t
	// (t*weight + costConst + BigM*conflicts), precomputed so value
	// ordering and the lower bound never recompute it.
	costAt []int64
	// valOrder lists slots in ascending costAt (ties slot-ascending): the
	// value-selection order, also reused as the min scan order for the
	// per-block contribution bound.
	valOrder []int32
	// ordOf inverts valOrder: ordOf[t] is slot t's decision ordinal in
	// the canonical value order. The skip branch's ordinal is
	// len(valOrder), sorting after every placement. Rank vectors over
	// these ordinals tie-break the parallel shared incumbent.
	ordOf []int32
	// skipCost is the leftover penalty SkipPenalty*weight.
	skipCost int64
}

type capUse struct {
	c, set int
	// flat is the global (capacity, set) index into the state's
	// forward-checking tables.
	flat int
	// cap and bucketSlots mirror the constraint's Cap/BucketSlots so the
	// hot path avoids re-loading the Capacity struct per placement.
	cap, bucketSlots int
	wOff             []int
	// prefix[k] = sum(wOff[:k]), precomputed so feasible can take the
	// within-placement contribution of any bucket segment in O(1) instead
	// of rescanning earlier offsets per offset.
	prefix []int
}

// uniSnap/locSnap/domSnap/ctrSnap are the undo-arena records; undoMark
// captures the four stack depths at place() entry so unplace() can pop
// exactly the changes of one placement without allocating.
type uniSnap struct {
	ui, slot int
	lo, hi   float64
	has      bool
}
type locSnap struct {
	li, grp int
	lo, hi  int
	has     bool
}
type domSnap struct {
	bi, word int32 // word is the global index into state.dom
	mask     uint64
}
type ctrSnap struct {
	bi  int32
	old int64
}
type undoMark struct {
	uni, loc, dom, ctr int
}

type state struct {
	m   *model.Model
	opt Options

	blocks []block
	order  []int // block indexes in static most-constrained-first order

	// usage[c][set][t]
	usage [][][]int
	// gcActiveItems[g][group][t], gcActiveGroups[g][t]
	gcActiveItems  [][][]int
	gcActiveGroups [][]int
	// uniLo/uniHi/uniHas [u][t]
	uniLo, uniHi [][]float64
	uniHas       [][]bool
	// locLo/locHi/locHas [l][group]
	locLo, locHi [][]int
	locHas       [][]bool

	// dom is the flattened per-block slot-domain bitset: block bi's words
	// live at [bi*domWords, (bi+1)*domWords). A set bit marks a start slot
	// not yet proven infeasible: the window bound and forbidden slots are
	// seeded out at newState time and capacity forward-checking clears
	// more during search.
	dom      []uint64
	domWords int
	domCount []int
	// contrib[bi] is the admissible per-block completion bound: the
	// cheapest incremental cost an unassigned block can still achieve
	// (min costAt over its live domain, or the skip cost when leftovers
	// are allowed). lbUnassigned is its sum over unassigned blocks.
	contrib      []int64
	lbUnassigned int64
	// Packing-bound inputs (see packBound): the covering capacity set the
	// unassigned weight is poured into (packC < 0 when the model has none
	// and the bound is off), its Cap, the shortest item duration, the last
	// start slot worth pouring into, and — maintained by place/unplace and
	// assignSkip/undoSkip — the summed weight of the unassigned blocks.
	packC, packSet int
	packCap        int
	packMinDur     int
	packLast       int
	unWeight       int
	// deadEnds counts unassigned must-place blocks with empty domains; any
	// positive value proves the current subtree infeasible.
	deadEnds int
	// Fail-first selection state: a doubly-linked list over static-order
	// positions of the still-unassigned blocks (sentinel = len(order)).
	unNext, unPrev []int32
	posOf          []int32 // block index -> static-order position
	// Forward-checking tables per flat (capacity, set) index: the member
	// blocks to prune on saturation (nil = per-member FC disabled for
	// that set) and the usage threshold whose crossing triggers the
	// prune. Sets too wide for per-member pruning get a shared
	// saturation bitset instead: satMask[flat] bit u is set while slot
	// u's bucket cannot fit even the lightest member, maintained
	// symmetrically by place/unplace crossings (no undo log needed).
	fcMembers [][]int32
	fcThr     []int
	satMask   [][]uint64
	// fcActive reports whether any set does per-member pruning: when
	// false, domains never shrink after newState and the static order
	// already is the fail-first order.
	fcActive bool
	// scratchBuf holds one candidate-mask row per search depth: the
	// selected block's domain minus saturated capacity slots and
	// localize-interleaving starts, rebuilt at each node.
	scratchBuf []uint64

	// Zero-alloc undo arenas (grow-once stacks popped via undoMark).
	uniStack []uniSnap
	locStack []locSnap
	domStack []domSnap
	ctrStack []ctrSnap

	assigned  []int // per block: slot or -1 skip; -2 unassigned
	cost      int64
	conflicts int64

	bestSlots []int
	bestCost  int64

	nodes     int64
	domPrunes int64
	deadline  time.Time
	complete  bool
	// warm reports that bestSlots/bestCost were seeded from
	// Options.WarmSlots rather than discovered by this search.
	warm    bool
	stopped bool
	ctx     context.Context
	ctxErr  error

	// shared is non-nil for parallel workers: the global incumbent bound,
	// node total, stop flag, and work-stealing deques. flushed counts the
	// nodes already added to shared.nodes.
	shared  *sharedSearch
	flushed int64
	// Work-stealing worker state (parallel only; see worksteal.go): the
	// worker id, the decision path from the root (one step per depth),
	// the incremental path-vs-incumbent relation cache, the replay frame
	// buffer, and the steal/split/replay counters summed at join.
	wid                         int
	path                        []step
	relAt                       []int8
	relValid                    int
	relRec                      *incumbentRec
	replayBuf                   []replayFrame
	steals, splits, replayNodes int64
}

func newState(m *model.Model, opt Options) *state {
	s := &state{m: m, opt: opt, bestCost: math.MaxInt64,
		deadline: time.Now().Add(opt.TimeLimit), complete: true}
	n := len(m.Items)
	T := m.NumSlots

	// Build blocks from SameSlot groups via union-find so overlapping
	// consistency groups merge into one block (the union semantics the
	// constraint promises); remaining items are singletons. Blocks are
	// numbered by first member and list their members in index order.
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, grp := range m.SameSlot {
		for i := 1; i < len(grp); i++ {
			ra, rb := find(grp[0]), find(grp[i])
			if ra != rb {
				parent[rb] = ra
			}
		}
	}
	blockOf := make([]int, n) // by root; -1 until the root's first member is seen
	for i := range blockOf {
		blockOf[i] = -1
	}
	var size []int
	for i := 0; i < n; i++ {
		r := find(i)
		if blockOf[r] < 0 {
			blockOf[r] = len(size)
			size = append(size, 0)
		}
		size[blockOf[r]]++
	}
	nb := len(size)
	blocks := make([]block, nb)
	itemSlab := make([]int, n)
	for bi := range blocks {
		blocks[bi].items = carve(&itemSlab, size[bi])[:0]
	}
	for i := 0; i < n; i++ {
		b := &blocks[blockOf[find(i)]]
		b.items = append(b.items, i)
	}

	// Per-item membership lists for constraint bookkeeping, and the flat
	// (capacity, set) numbering of the forward-checking tables.
	setBase := make([]int, len(m.Capacities)+1)
	capSets := make([][][]int, len(m.Capacities))
	for ci, c := range m.Capacities {
		setBase[ci+1] = setBase[ci] + len(c.Sets)
		capSets[ci] = c.Sets
	}
	gcSets := make([][][]int, len(m.GroupCounts))
	for gi, g := range m.GroupCounts {
		gcSets[gi] = g.Groups
	}
	locSets := make([][][]int, len(m.Localized))
	for li, l := range m.Localized {
		locSets[li] = l.Groups
	}
	capOf, gcOf, locOf := membership(n, capSets), membership(n, gcSets), membership(n, locSets)

	// Everything sized per block comes off slabs sized for all of them. A
	// block's capacity rows take at most 2d+1 ints (wOff and prefix) per
	// membership of a member of duration d, its group lists at most one
	// pair per membership.
	U := len(m.Uniform)
	capUses, capInts, pairs := 0, 0, 0
	for i := 0; i < n; i++ {
		capUses += len(capOf[i])
		capInts += len(capOf[i]) * (2*m.Duration(i) + 1)
		pairs += len(gcOf[i]) + len(locOf[i])
	}
	capUseSlab := make([]capUse, capUses)
	intSlab := make([]int, capInts)
	pairSlab := make([][2]int, pairs)
	costSlab := make([]int64, nb*T)
	ordSlab := make([]int32, 2*nb*T)
	uniSlab := make([]float64, 2*nb*U)
	s.domWords = (T + 63) >> 6
	s.dom = make([]uint64, nb*s.domWords)
	s.domCount = make([]int, nb)
	// Scratch reused by every block: the (capacity set, weight, duration)
	// of each member's memberships, gathered group pairs, banned starts.
	type capTouch struct{ c, set, flat, w, d int }
	var touches []capTouch
	var gathered [][2]int
	banned := make([]bool, T)
	// groupsOf is the sorted set of the {constraint, group} pairs a block's
	// members belong to.
	groupsOf := func(items []int, of [][][2]int) [][2]int {
		gathered = gathered[:0]
		for _, i := range items {
			gathered = append(gathered, of[i]...)
		}
		sortPairs(gathered)
		return append(carve(&pairSlab, len(gathered))[:0], slices.Compact(gathered)...)
	}

	for bi := range blocks {
		b := &blocks[bi]
		touches = touches[:0]
		clear(banned)
		b.duration = 1
		b.uniLo, b.uniHi = carve(&uniSlab, U), carve(&uniSlab, U)
		for ui := range m.Uniform {
			b.uniLo[ui], b.uniHi[ui] = math.Inf(1), math.Inf(-1)
		}
		for _, i := range b.items {
			w := m.Weight(i)
			d := m.Duration(i)
			b.weight += w
			b.costConst += int64(w) * int64(d)
			if d > b.duration {
				b.duration = d
			}
			for _, cm := range capOf[i] {
				touches = append(touches, capTouch{cm[0], cm[1], setBase[cm[0]] + cm[1], w, d})
			}
			for ui, u := range m.Uniform {
				v := u.Values[i]
				if v < b.uniLo[ui] {
					b.uniLo[ui] = v
				}
				if v > b.uniHi[ui] {
					b.uniHi[ui] = v
				}
			}
			// A member occupying [t, t+d) bans every start t that would
			// cover a forbidden (or zero-tolerance conflicting) slot, and
			// accumulates collisions per start for minimize mode. Validate
			// keeps both kinds of slot inside the window.
			if i < len(m.Forbidden) {
				for _, f := range m.Forbidden[i] {
					for t := max(f-d+1, 0); t <= f; t++ {
						banned[t] = true
					}
				}
			}
			if i < len(m.ConflictSlots) {
				for _, f := range m.ConflictSlots[i] {
					if b.conflictCount == nil {
						b.conflictCount = make([]int, T)
					}
					for t := max(f-d+1, 0); t <= f; t++ {
						b.conflictCount[t]++
						if m.ZeroConflict {
							banned[t] = true
						}
					}
				}
			}
		}
		// One capUse per capacity set the block touches, in flat order: the
		// memberships of one set are a run once sorted, and its row is as
		// long as the run's longest member.
		slices.SortFunc(touches, func(x, y capTouch) int { return cmp.Compare(x.flat, y.flat) })
		b.capUse = carve(&capUseSlab, len(touches))[:0]
		for lo := 0; lo < len(touches); {
			hi, dur := lo, 0
			for ; hi < len(touches) && touches[hi].flat == touches[lo].flat; hi++ {
				dur = max(dur, touches[hi].d)
			}
			wOff, prefix := carve(&intSlab, dur), carve(&intSlab, dur+1)
			for _, tc := range touches[lo:hi] {
				for k := 0; k < tc.d; k++ {
					wOff[k] += tc.w
				}
			}
			for o, w := range wOff {
				prefix[o+1] = prefix[o] + w
			}
			tc := touches[lo]
			b.capUse = append(b.capUse, capUse{c: tc.c, set: tc.set, flat: tc.flat,
				cap: m.Capacities[tc.c].Cap, bucketSlots: m.Capacities[tc.c].BucketSlots,
				wOff: wOff, prefix: prefix})
			lo = hi
		}
		b.gcGroups, b.locGroups = groupsOf(b.items, gcOf), groupsOf(b.items, locOf)
		// Value ordering: exact incremental cost per start slot, slots
		// sorted cheapest-first (ties slot-ascending so the sequential
		// search and lex tie-breaks stay deterministic). Under
		// ZeroConflict the conflicting starts are forbidden (domain
		// facts), so costAt carries no BigM term.
		b.skipCost = int64(m.SkipPenalty) * int64(b.weight)
		b.costAt = carve(&costSlab, T)
		for t := 0; t < T; t++ {
			ca := int64(t)*int64(b.weight) + b.costConst
			if !m.ZeroConflict && b.conflictCount != nil {
				ca += int64(m.BigM) * int64(b.conflictCount[t])
			}
			b.costAt[t] = ca
		}
		b.valOrder, b.ordOf = carve(&ordSlab, T), carve(&ordSlab, T)
		for t := range b.valOrder {
			b.valOrder[t] = int32(t)
		}
		slices.SortStableFunc(b.valOrder, func(x, y int32) int { return cmp.Compare(b.costAt[x], b.costAt[y]) })
		for o, t := range b.valOrder {
			b.ordOf[t] = int32(o)
		}
		// Slot domain: the starts the window admits (t+duration <= NumSlots)
		// minus the banned ones.
		base := bi * s.domWords
		for t := 0; t+b.duration <= T; t++ {
			if !banned[t] {
				s.dom[base+(t>>6)] |= 1 << (uint(t) & 63)
				s.domCount[bi]++
			}
		}
	}
	s.blocks = blocks

	// Static search order: most-constrained first by live-domain size,
	// then larger weight, then index. order[0] doubles as the fixed root
	// block of the parallel split, and selectBlock falls back to this
	// order on domain-count ties.
	s.order = make([]int, len(blocks))
	for i := range s.order {
		s.order[i] = i
	}
	slices.SortStableFunc(s.order, func(a, b int) int {
		return cmp.Or(cmp.Compare(s.domCount[a], s.domCount[b]), cmp.Compare(blocks[b].weight, blocks[a].weight), cmp.Compare(a, b))
	})
	nOrd := len(s.order)
	s.posOf = make([]int32, len(blocks))
	for pos, bi := range s.order {
		s.posOf[bi] = int32(pos)
	}
	s.unNext = make([]int32, nOrd+1)
	s.unPrev = make([]int32, nOrd+1)
	for pos := 0; pos <= nOrd; pos++ {
		s.unNext[pos] = int32((pos + 1) % (nOrd + 1))
		s.unPrev[pos] = int32((pos + nOrd) % (nOrd + 1))
	}
	s.scratchBuf = make([]uint64, (nOrd+1)*s.domWords)

	// Forward-checking tables: per flat (capacity, set) index, the member
	// blocks and the saturation threshold Cap - min contributed weight.
	// Every wOff entry is >= 1, so once usage exceeds the threshold every
	// unassigned member placement touching the bucket must overflow it.
	nFlat := setBase[len(m.Capacities)]
	s.fcMembers = make([][]int32, nFlat)
	s.fcThr = make([]int, nFlat)
	s.satMask = make([][]uint64, nFlat)
	minW := make([]int, nFlat)
	for i := range minW {
		minW[i] = math.MaxInt
	}
	maxW := make([]int, nFlat) // upper bound on any bucket's total load
	for bi := range blocks {
		for _, cu := range blocks[bi].capUse {
			s.fcMembers[cu.flat] = append(s.fcMembers[cu.flat], int32(bi))
			for _, w := range cu.wOff {
				if w < minW[cu.flat] {
					minW[cu.flat] = w
				}
				maxW[cu.flat] += w
			}
		}
	}
	for ci, c := range m.Capacities {
		for si := range c.Sets {
			flat := setBase[ci] + si
			if len(s.fcMembers[flat]) == 0 {
				s.fcMembers[flat] = nil
				s.fcThr[flat] = -1
				continue
			}
			s.fcThr[flat] = c.Cap - minW[flat]
			if maxW[flat] <= s.fcThr[flat] {
				// Even all members together cannot push a bucket past the
				// threshold (a slack constraint, e.g. capacity far above the
				// set's total weight): the crossing can never fire, so skip
				// the propagation tables entirely.
				s.fcMembers[flat] = nil
				continue
			}
			if len(s.fcMembers[flat]) > fcMaxMembers {
				s.fcMembers[flat] = nil
				s.satMask[flat] = make([]uint64, s.domWords)
			} else {
				s.fcActive = true
			}
		}
	}

	// Constraint state.
	s.usage = make([][][]int, len(m.Capacities))
	for ci, c := range m.Capacities {
		s.usage[ci] = make([][]int, len(c.Sets))
		for si := range c.Sets {
			s.usage[ci][si] = make([]int, c.NumBuckets(T))
		}
	}
	s.gcActiveItems = make([][][]int, len(m.GroupCounts))
	s.gcActiveGroups = make([][]int, len(m.GroupCounts))
	for gi, g := range m.GroupCounts {
		s.gcActiveItems[gi] = make([][]int, len(g.Groups))
		for x := range g.Groups {
			s.gcActiveItems[gi][x] = make([]int, T)
		}
		s.gcActiveGroups[gi] = make([]int, T)
	}
	s.uniLo = make([][]float64, len(m.Uniform))
	s.uniHi = make([][]float64, len(m.Uniform))
	s.uniHas = make([][]bool, len(m.Uniform))
	for ui := range m.Uniform {
		s.uniLo[ui] = make([]float64, T)
		s.uniHi[ui] = make([]float64, T)
		s.uniHas[ui] = make([]bool, T)
	}
	s.locLo = make([][]int, len(m.Localized))
	s.locHi = make([][]int, len(m.Localized))
	s.locHas = make([][]bool, len(m.Localized))
	for li, l := range m.Localized {
		s.locLo[li] = make([]int, len(l.Groups))
		s.locHi[li] = make([]int, len(l.Groups))
		s.locHas[li] = make([]bool, len(l.Groups))
	}
	s.assigned = make([]int, len(blocks))
	for i := range s.assigned {
		s.assigned[i] = -2
	}

	// Per-block completion bounds and the initial dead-end census.
	s.contrib = make([]int64, len(blocks))
	for bi := range blocks {
		s.contrib[bi] = s.blockContrib(bi)
		s.lbUnassigned += s.contrib[bi]
		s.unWeight += blocks[bi].weight
		if m.RequireAll && s.domCount[bi] == 0 {
			s.deadEnds++
		}
	}

	// Packing bound: pack against the tightest per-slot capacity set that
	// holds every item (what a global concurrency constraint translates
	// to). A unit of weight started at t costs at least t + the shortest
	// duration, so pouring stops at the window's last start slot, or
	// earlier once skipping a unit is no dearer than starting it.
	s.packC = -1
	inSet := make([]int, n) // inSet[i] == stamp: item i is in the set under test
	stamp := 0
	for ci, c := range m.Capacities {
		if c.BucketSlots > 1 {
			continue
		}
		for si, set := range c.Sets {
			if s.packC >= 0 && c.Cap >= s.packCap {
				continue
			}
			stamp++
			distinct := 0
			for _, i := range set {
				if inSet[i] != stamp {
					inSet[i] = stamp
					distinct++
				}
			}
			if distinct == n {
				s.packC, s.packSet, s.packCap = ci, si, c.Cap
			}
		}
	}
	s.packMinDur = m.Duration(0)
	for i := 1; i < n; i++ {
		if d := m.Duration(i); d < s.packMinDur {
			s.packMinDur = d
		}
	}
	s.packLast = T - s.packMinDur
	if !m.RequireAll && m.SkipPenalty-s.packMinDur-1 < s.packLast {
		s.packLast = max(m.SkipPenalty-s.packMinDur-1, -1)
	}

	// Undo arenas: uni/loc worst cases are exact (every block placed at
	// once), dom/ctr grow once under forward-checking pressure.
	uniCap, locCap := 0, 0
	for bi := range blocks {
		uniCap += len(m.Uniform) * blocks[bi].duration
		locCap += len(blocks[bi].locGroups)
	}
	s.uniStack = make([]uniSnap, 0, uniCap)
	s.locStack = make([]locSnap, 0, locCap)
	s.domStack = make([]domSnap, 0, 64)
	s.ctrStack = make([]ctrSnap, 0, 64)
	return s
}

// clone deep-copies the mutable search state (constraint propagation
// arrays, domains, bounds, assignment, cost) for a parallel worker; the
// immutable model, blocks, order, position map, and forward-checking
// tables are shared. Undo arenas start empty at the parent's capacity.
func (s *state) clone() *state {
	c := &state{
		m: s.m, opt: s.opt, blocks: s.blocks, order: s.order,
		bestCost: math.MaxInt64, deadline: s.deadline, complete: true,
		cost: s.cost, conflicts: s.conflicts,
		domWords: s.domWords, posOf: s.posOf,
		fcMembers: s.fcMembers, fcThr: s.fcThr, fcActive: s.fcActive,
		lbUnassigned: s.lbUnassigned, deadEnds: s.deadEnds,
		packC: s.packC, packSet: s.packSet, packCap: s.packCap,
		packMinDur: s.packMinDur, packLast: s.packLast, unWeight: s.unWeight,
	}
	c.usage = make([][][]int, len(s.usage))
	for i, sets := range s.usage {
		c.usage[i] = make([][]int, len(sets))
		for j, set := range sets {
			c.usage[i][j] = append([]int(nil), set...)
		}
	}
	c.gcActiveItems = make([][][]int, len(s.gcActiveItems))
	for i, groups := range s.gcActiveItems {
		c.gcActiveItems[i] = make([][]int, len(groups))
		for j, grp := range groups {
			c.gcActiveItems[i][j] = append([]int(nil), grp...)
		}
	}
	c.gcActiveGroups = make([][]int, len(s.gcActiveGroups))
	for i, g := range s.gcActiveGroups {
		c.gcActiveGroups[i] = append([]int(nil), g...)
	}
	c.uniLo = cloneF64(s.uniLo)
	c.uniHi = cloneF64(s.uniHi)
	c.uniHas = cloneBool(s.uniHas)
	c.locLo = cloneInt(s.locLo)
	c.locHi = cloneInt(s.locHi)
	c.locHas = cloneBool(s.locHas)
	c.assigned = append([]int(nil), s.assigned...)
	c.satMask = make([][]uint64, len(s.satMask))
	for i, m := range s.satMask {
		if m != nil {
			c.satMask[i] = append([]uint64(nil), m...)
		}
	}
	c.scratchBuf = make([]uint64, len(s.scratchBuf))
	c.dom = append([]uint64(nil), s.dom...)
	c.domCount = append([]int(nil), s.domCount...)
	c.contrib = append([]int64(nil), s.contrib...)
	c.unNext = append([]int32(nil), s.unNext...)
	c.unPrev = append([]int32(nil), s.unPrev...)
	c.uniStack = make([]uniSnap, 0, cap(s.uniStack))
	c.locStack = make([]locSnap, 0, cap(s.locStack))
	c.domStack = make([]domSnap, 0, 64)
	c.ctrStack = make([]ctrSnap, 0, 64)
	return c
}

func cloneF64(xs [][]float64) [][]float64 {
	out := make([][]float64, len(xs))
	for i, x := range xs {
		out[i] = append([]float64(nil), x...)
	}
	return out
}

func cloneInt(xs [][]int) [][]int {
	out := make([][]int, len(xs))
	for i, x := range xs {
		out[i] = append([]int(nil), x...)
	}
	return out
}

func cloneBool(xs [][]bool) [][]bool {
	out := make([][]bool, len(xs))
	for i, x := range xs {
		out[i] = append([]bool(nil), x...)
	}
	return out
}

func sortPairs(ps [][2]int) {
	slices.SortFunc(ps, func(a, b [2]int) int { return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1])) })
}

// carve cuts the next n elements off a slab allocated for many small
// slices at once; the piece cannot grow into its neighbour.
func carve[E any](slab *[]E, n int) []E {
	out := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return out
}

// membership inverts the index sets of one constraint family: out[i] lists
// {constraint, set} for every occurrence of item i in a set, in
// (constraint, set) order. The occurrences are counted first so the lists
// share one allocation.
func membership(n int, sets [][][]int) [][][2]int {
	count := make([]int, n)
	total := 0
	for _, family := range sets {
		for _, set := range family {
			for _, i := range set {
				count[i]++
				total++
			}
		}
	}
	slab := make([][2]int, total)
	out := make([][][2]int, n)
	for i := range out {
		out[i] = carve(&slab, count[i])[:0]
	}
	for k, family := range sets {
		for si, set := range family {
			for _, i := range set {
				out[i] = append(out[i], [2]int{k, si})
			}
		}
	}
	return out
}

// blockContrib returns the admissible minimum incremental cost for an
// unassigned block: the cheapest costAt over its live domain (valOrder is
// cost-sorted, so the first live bit wins), bounded by the skip cost when
// leftovers are allowed. An empty domain under RequireAll floors at
// costConst — deadEnds prunes those subtrees before the bound matters,
// and the floor keeps lbUnassigned overflow-free.
func (s *state) blockContrib(bi int) int64 {
	b := &s.blocks[bi]
	base := bi * s.domWords
	for _, t32 := range b.valOrder {
		t := int(t32)
		if s.dom[base+(t>>6)]&(1<<(uint(t)&63)) != 0 {
			if !s.m.RequireAll && b.skipCost < b.costAt[t] {
				return b.skipCost
			}
			return b.costAt[t]
		}
	}
	if !s.m.RequireAll {
		return b.skipCost
	}
	return b.costConst
}

// packBound is the capacity-packing lower bound on the cost of finishing
// the unassigned blocks: their summed weight is poured, unit by unit, into
// the covering set's free room Cap - usage[t] from the cheapest start slot
// upward at t + packMinDur per unit, and whatever is left past packLast
// pays SkipPenalty per unit. It relaxes the model in one direction only —
// blocks split into units, a multi-slot item takes room at its start slot
// alone, windows, forbidden slots, uniformity, localize, group counts and
// every other capacity are ignored, conflicts cost nothing — so no
// completion is cheaper. ok is false when RequireAll leaves weight with
// no room: the subtree holds no complete schedule.
func (s *state) packBound() (lb int64, ok bool) {
	rem := s.unWeight
	capacity, minDur := s.packCap, s.packMinDur
	for t, used := range s.usage[s.packC][s.packSet][:s.packLast+1] {
		room := capacity - used
		if room <= 0 {
			continue
		}
		if room >= rem {
			return lb + int64(rem)*int64(t+minDur), true
		}
		lb += int64(room) * int64(t+minDur)
		rem -= room
	}
	if rem == 0 {
		return lb, true
	}
	if s.m.RequireAll {
		return 0, false
	}
	return lb + int64(rem)*int64(s.m.SkipPenalty), true
}

// rootClosed reports whether one of the root bounds already meets the
// incumbent (a warm seed) or proves the model infeasible: the whole search
// is the root node.
func (s *state) rootClosed() bool {
	if s.deadEnds > 0 || s.lbUnassigned >= s.bestCost {
		return true
	}
	if s.packC < 0 {
		return false
	}
	pb, ok := s.packBound()
	return !ok || pb >= s.bestCost
}

// feasible reports whether block b can be placed at start slot t given
// current propagated state. The caller must have tested t against the
// block's buildScratch mask first: the window bound, forbidden starts,
// and localize interleaving are mask facts and are not re-checked here.
func (s *state) feasible(b *block, t int) bool {
	for ci := range b.capUse {
		cu := &b.capUse[ci]
		if cu.bucketSlots <= 1 {
			// One bucket per slot: each offset contributes only its own
			// weight.
			use := s.usage[cu.c][cu.set]
			for k, w := range cu.wOff {
				if use[t+k]+w > cu.cap {
					return false
				}
			}
			continue
		}
		// A multi-slot placement can land several offsets in one budget
		// bucket (a 3-window change inside one week): the within-placement
		// contribution to offset k's bucket is the prefix-sum span of the
		// offsets sharing that bucket, precomputed at newState time.
		for k := range cu.wOff {
			bk := (t + k) / cu.bucketSlots
			segStart := bk*cu.bucketSlots - t
			if segStart < 0 {
				segStart = 0
			}
			add := cu.prefix[k+1] - cu.prefix[segStart]
			if s.usage[cu.c][cu.set][bk]+add > cu.cap {
				return false
			}
		}
	}
	for _, g := range b.gcGroups {
		gi, grp := g[0], g[1]
		for k := 0; k < b.duration; k++ {
			if s.gcActiveItems[gi][grp][t+k] == 0 &&
				s.gcActiveGroups[gi][t+k] >= s.m.GroupCounts[gi].Cap {
				return false
			}
		}
	}
	for ui := range s.m.Uniform {
		for k := 0; k < b.duration; k++ {
			lo, hi := b.uniLo[ui], b.uniHi[ui]
			if s.uniHas[ui][t+k] {
				if s.uniLo[ui][t+k] < lo {
					lo = s.uniLo[ui][t+k]
				}
				if s.uniHi[ui][t+k] > hi {
					hi = s.uniHi[ui][t+k]
				}
			}
			if hi-lo > s.m.Uniform[ui].MaxDist {
				return false
			}
		}
	}
	return true
}

// listRemove/listRestore maintain the unassigned-position list; restore
// relies on strict LIFO (dancing links).
func (s *state) listRemove(pos int32) {
	s.unNext[s.unPrev[pos]] = s.unNext[pos]
	s.unPrev[s.unNext[pos]] = s.unPrev[pos]
}

func (s *state) listRestore(pos int32) {
	s.unNext[s.unPrev[pos]] = pos
	s.unPrev[s.unNext[pos]] = pos
}

// place applies block b at slot t and returns the undo mark plus the
// added cost. It allocates nothing: all reversible changes go through the
// preallocated arenas.
func (s *state) place(bi int, b *block, t int) (undoMark, int64) {
	mark := undoMark{uni: len(s.uniStack), loc: len(s.locStack),
		dom: len(s.domStack), ctr: len(s.ctrStack)}
	// Assignment bookkeeping first: the forward-checking events fired
	// below must see bi as assigned so they do not prune (or dead-end) its
	// own now-irrelevant domain.
	s.assigned[bi] = t
	s.listRemove(s.posOf[bi])
	s.lbUnassigned -= s.contrib[bi]
	s.unWeight -= b.weight
	for ci := range b.capUse {
		cu := &b.capUse[ci]
		use := s.usage[cu.c][cu.set]
		thr := s.fcThr[cu.flat]
		for k, w := range cu.wOff {
			bk := t + k
			if cu.bucketSlots > 1 {
				bk /= cu.bucketSlots
			}
			old := use[bk]
			use[bk] = old + w
			if old <= thr && old+w > thr {
				if mbrs := s.fcMembers[cu.flat]; mbrs != nil {
					s.pruneBucket(mbrs, cu.flat, bk, cu.bucketSlots)
				} else if sat := s.satMask[cu.flat]; sat != nil {
					s.setSat(sat, bk, cu.bucketSlots)
				}
			}
		}
	}
	for _, g := range b.gcGroups {
		gi, grp := g[0], g[1]
		for k := 0; k < b.duration; k++ {
			if s.gcActiveItems[gi][grp][t+k] == 0 {
				s.gcActiveGroups[gi][t+k]++
			}
			s.gcActiveItems[gi][grp][t+k] += len(b.items)
		}
	}
	for ui := range s.m.Uniform {
		loRow, hiRow, hasRow := s.uniLo[ui], s.uniHi[ui], s.uniHas[ui]
		for k := 0; k < b.duration; k++ {
			tt := t + k
			lo, hi := b.uniLo[ui], b.uniHi[ui]
			if hasRow[tt] {
				clo, chi := loRow[tt], hiRow[tt]
				if clo <= lo && chi >= hi {
					// The slot's band already covers the block: nothing
					// changes, so no snapshot is needed.
					continue
				}
				if clo < lo {
					lo = clo
				}
				if chi > hi {
					hi = chi
				}
			}
			s.uniStack = append(s.uniStack, uniSnap{ui: ui, slot: tt,
				lo: loRow[tt], hi: hiRow[tt], has: hasRow[tt]})
			loRow[tt], hiRow[tt], hasRow[tt] = lo, hi, true
		}
	}
	for _, lg := range b.locGroups {
		li, grp := lg[0], lg[1]
		loRow, hiRow, hasRow := s.locLo[li], s.locHi[li], s.locHas[li]
		lo, hi := t, t+b.duration-1
		if hasRow[grp] {
			clo, chi := loRow[grp], hiRow[grp]
			if clo <= lo && chi >= hi {
				// Placement inside the group's current interval: no change,
				// no snapshot.
				continue
			}
			if clo < lo {
				lo = clo
			}
			if chi > hi {
				hi = chi
			}
		}
		s.locStack = append(s.locStack, locSnap{li: li, grp: grp,
			lo: loRow[grp], hi: hiRow[grp], has: hasRow[grp]})
		loRow[grp], hiRow[grp], hasRow[grp] = lo, hi, true
	}
	added := b.costAt[t]
	if !s.m.ZeroConflict && b.conflictCount != nil {
		s.conflicts += int64(b.conflictCount[t])
	}
	s.cost += added
	return mark, added
}

// unplace reverses place, popping each arena back to the mark. The pops
// commute across arenas (dom restores bits/counts, ctr restores bounds),
// so per-arena reverse order is all LIFO requires.
func (s *state) unplace(bi int, b *block, t int, mark undoMark, added int64) {
	s.cost -= added
	if !s.m.ZeroConflict && b.conflictCount != nil {
		s.conflicts -= int64(b.conflictCount[t])
	}
	for i := len(s.locStack) - 1; i >= mark.loc; i-- {
		sn := &s.locStack[i]
		s.locLo[sn.li][sn.grp], s.locHi[sn.li][sn.grp], s.locHas[sn.li][sn.grp] = sn.lo, sn.hi, sn.has
	}
	s.locStack = s.locStack[:mark.loc]
	for i := len(s.uniStack) - 1; i >= mark.uni; i-- {
		sn := &s.uniStack[i]
		s.uniLo[sn.ui][sn.slot], s.uniHi[sn.ui][sn.slot], s.uniHas[sn.ui][sn.slot] = sn.lo, sn.hi, sn.has
	}
	s.uniStack = s.uniStack[:mark.uni]
	for _, g := range b.gcGroups {
		gi, grp := g[0], g[1]
		for k := 0; k < b.duration; k++ {
			s.gcActiveItems[gi][grp][t+k] -= len(b.items)
			if s.gcActiveItems[gi][grp][t+k] == 0 {
				s.gcActiveGroups[gi][t+k]--
			}
		}
	}
	for i := len(s.ctrStack) - 1; i >= mark.ctr; i-- {
		sn := s.ctrStack[i]
		s.lbUnassigned += sn.old - s.contrib[sn.bi]
		s.contrib[sn.bi] = sn.old
	}
	s.ctrStack = s.ctrStack[:mark.ctr]
	for i := len(s.domStack) - 1; i >= mark.dom; i-- {
		sn := s.domStack[i]
		if s.m.RequireAll && s.domCount[sn.bi] == 0 {
			s.deadEnds--
		}
		s.dom[sn.word] |= sn.mask
		s.domCount[sn.bi] += bits.OnesCount64(sn.mask)
	}
	s.domStack = s.domStack[:mark.dom]
	for ci := range b.capUse {
		cu := &b.capUse[ci]
		use := s.usage[cu.c][cu.set]
		thr := s.fcThr[cu.flat]
		for k, w := range cu.wOff {
			bk := t + k
			if cu.bucketSlots > 1 {
				bk /= cu.bucketSlots
			}
			old := use[bk]
			use[bk] = old - w
			if old > thr && old-w <= thr {
				// Mirror of the place crossing: the per-member prune is
				// undone via the dom stack above; the shared saturation
				// bitset is cleared symmetrically here.
				if sat := s.satMask[cu.flat]; sat != nil {
					s.clearSat(sat, bk, cu.bucketSlots)
				}
			}
		}
	}
	s.unWeight += b.weight
	s.lbUnassigned += s.contrib[bi]
	s.listRestore(s.posOf[bi])
	s.assigned[bi] = -2
}

// assignSkip/undoSkip handle the leftover branch with the same
// list/lower-bound bookkeeping as place/unplace.
func (s *state) assignSkip(bi int, b *block) {
	s.assigned[bi] = -1
	s.listRemove(s.posOf[bi])
	s.lbUnassigned -= s.contrib[bi]
	s.unWeight -= b.weight
	s.cost += b.skipCost
}

func (s *state) undoSkip(bi int, b *block) {
	s.cost -= b.skipCost
	s.unWeight += b.weight
	s.lbUnassigned += s.contrib[bi]
	s.listRestore(s.posOf[bi])
	s.assigned[bi] = -2
}

// pruneBucket fires when a bucket of the capacity set at index flat
// saturates: any unassigned member block starting where its occupancy of
// that set touches the bucket would overflow it, so those start slots are
// cleared from the member domains (restored on backtrack via the dom
// stack). A block occupies the set for as long as its longest member in
// it runs, which can be shorter than the block itself.
func (s *state) pruneBucket(mbrs []int32, flat, bk, width int) {
	if width < 1 {
		width = 1
	}
	for _, mb := range mbrs {
		bi := int(mb)
		if s.assigned[bi] != -2 {
			continue
		}
		b := &s.blocks[bi]
		span := 0
		for ci := range b.capUse {
			if b.capUse[ci].flat == flat {
				span = len(b.capUse[ci].wOff)
				break
			}
		}
		lo := bk*width - span + 1
		if lo < 0 {
			lo = 0
		}
		hi := (bk+1)*width - 1
		if hi > s.m.NumSlots-1 {
			hi = s.m.NumSlots - 1
		}
		if lo <= hi {
			s.clearRange(bi, b, lo, hi)
		}
	}
}

// clearRange clears block bi's live start bits in [lo, hi], logging the
// cleared masks for undo and refreshing the block's contribution bound.
func (s *state) clearRange(bi int, b *block, lo, hi int) {
	base := bi * s.domWords
	loW, hiW := lo>>6, hi>>6
	cleared := 0
	for w := loW; w <= hiW; w++ {
		mask := ^uint64(0)
		if w == loW {
			mask &= ^uint64(0) << (uint(lo) & 63)
		}
		if w == hiW {
			mask &= ^uint64(0) >> (63 - uint(hi)&63)
		}
		live := s.dom[base+w] & mask
		if live == 0 {
			continue
		}
		s.dom[base+w] &^= live
		s.domStack = append(s.domStack, domSnap{bi: int32(bi), word: int32(base + w), mask: live})
		cleared += bits.OnesCount64(live)
	}
	if cleared == 0 {
		return
	}
	s.domPrunes += int64(cleared)
	s.domCount[bi] -= cleared
	if s.m.RequireAll && s.domCount[bi] == 0 {
		s.deadEnds++
	}
	if nc := s.blockContrib(bi); nc != s.contrib[bi] {
		s.ctrStack = append(s.ctrStack, ctrSnap{bi: int32(bi), old: s.contrib[bi]})
		s.lbUnassigned += nc - s.contrib[bi]
		s.contrib[bi] = nc
	}
}

// setBits/clearBits set or clear bit range [lo, hi] of a word array.
func setBits(ws []uint64, lo, hi int) {
	loW, hiW := lo>>6, hi>>6
	for w := loW; w <= hiW; w++ {
		mask := ^uint64(0)
		if w == loW {
			mask &= ^uint64(0) << (uint(lo) & 63)
		}
		if w == hiW {
			mask &= ^uint64(0) >> (63 - uint(hi)&63)
		}
		ws[w] |= mask
	}
}

func clearBits(ws []uint64, lo, hi int) {
	loW, hiW := lo>>6, hi>>6
	for w := loW; w <= hiW; w++ {
		mask := ^uint64(0)
		if w == loW {
			mask &= ^uint64(0) << (uint(lo) & 63)
		}
		if w == hiW {
			mask &= ^uint64(0) >> (63 - uint(hi)&63)
		}
		ws[w] &^= mask
	}
}

// setSat/clearSat mark or unmark bucket bk's slots in a saturation
// bitset when usage crosses the Cap-minWeight threshold.
func (s *state) setSat(sat []uint64, bk, width int) {
	if width < 1 {
		width = 1
	}
	lo := bk * width
	hi := lo + width - 1
	if hi > s.m.NumSlots-1 {
		hi = s.m.NumSlots - 1
	}
	if lo <= hi {
		setBits(sat, lo, hi)
	}
}

func (s *state) clearSat(sat []uint64, bk, width int) {
	if width < 1 {
		width = 1
	}
	lo := bk * width
	hi := lo + width - 1
	if hi > s.m.NumSlots-1 {
		hi = s.m.NumSlots - 1
	}
	if lo <= hi {
		clearBits(sat, lo, hi)
	}
}

// buildScratch assembles the per-node candidate mask for block b: its
// slot domain, minus starts occupying a saturated capacity slot (sets
// too wide for per-member forward-checking), minus starts whose merged
// localize interval would strictly interleave another group's. The mask
// stays valid across the whole value loop because every recursion
// restores state exactly; rows are per-depth so recursion cannot clobber
// the caller's mask.
func (s *state) buildScratch(bi int, b *block, depth int) []uint64 {
	W := s.domWords
	scratch := s.scratchBuf[depth*W : (depth+1)*W]
	if W == 1 {
		// Single-word fast path (NumSlots <= 64): the whole mask lives
		// in a register until the final store.
		sc := s.dom[bi]
		for ci := range b.capUse {
			cu := &b.capUse[ci]
			if sat := s.satMask[cu.flat]; sat != nil {
				for k := range cu.wOff {
					sc &^= sat[0] >> uint(k)
				}
			}
		}
		for _, lg := range b.locGroups {
			li, grp := lg[0], lg[1]
			loRow, hiRow, hasRow := s.locLo[li], s.locHi[li], s.locHas[li]
			ownHas := hasRow[grp]
			lo, hi := loRow[grp], hiRow[grp]
			for other := range hasRow {
				if other == grp || !hasRow[other] {
					continue
				}
				oLo, oHi := loRow[other], hiRow[other]
				var flo, fhi int
				switch {
				case !ownHas || (lo >= oHi && oLo >= hi):
					flo, fhi = oLo-b.duration+2, oHi-1
				case lo >= oHi:
					flo, fhi = 0, oHi-1
				default:
					flo, fhi = oLo-b.duration+2, s.m.NumSlots-1
				}
				if flo < 0 {
					flo = 0
				}
				if fhi > s.m.NumSlots-1 {
					fhi = s.m.NumSlots - 1
				}
				if flo <= fhi {
					sc &^= (^uint64(0) << uint(flo)) & (^uint64(0) >> uint(63-fhi))
				}
			}
		}
		scratch[0] = sc
		return scratch
	}
	copy(scratch, s.dom[bi*W:(bi+1)*W])
	for ci := range b.capUse {
		cu := &b.capUse[ci]
		sat := s.satMask[cu.flat]
		if sat == nil {
			continue
		}
		// Start t is dead when any slot t+k the block occupies in this
		// set is saturated: subtract every right-shift of the saturation
		// mask over the set's own span.
		for k := range cu.wOff {
			wo, bo := k>>6, uint(k)&63
			for w := 0; w+wo < W; w++ {
				v := sat[w+wo] >> bo
				if bo != 0 && w+wo+1 < W {
					v |= sat[w+wo+1] << (64 - bo)
				}
				scratch[w] &^= v
			}
		}
	}
	// Localize interleaving, exactly mirroring the old per-candidate
	// check: with own interval [lo,hi] and another group's [oLo,oHi],
	// the merged interval [min(t,lo), max(t+d-1,hi)] must not strictly
	// overlap [oLo,oHi]. Per other group that forbids one start range.
	for _, lg := range b.locGroups {
		li, grp := lg[0], lg[1]
		loRow, hiRow, hasRow := s.locLo[li], s.locHi[li], s.locHas[li]
		ownHas := hasRow[grp]
		lo, hi := loRow[grp], hiRow[grp]
		for other := range hasRow {
			if other == grp || !hasRow[other] {
				continue
			}
			oLo, oHi := loRow[other], hiRow[other]
			var flo, fhi int
			switch {
			case !ownHas || (lo >= oHi && oLo >= hi):
				// No own interval (or a degenerate touch on both
				// sides): only starts straddling the other interval
				// interleave.
				flo, fhi = oLo-b.duration+2, oHi-1
			case lo >= oHi:
				// Other entirely left: any start below its high end
				// would stretch our interval across it.
				flo, fhi = 0, oHi-1
			default:
				// Other entirely right (guaranteed by the placement
				// invariant): any start ending past its low end
				// interleaves.
				flo, fhi = oLo-b.duration+2, s.m.NumSlots-1
			}
			if flo < 0 {
				flo = 0
			}
			if fhi > s.m.NumSlots-1 {
				fhi = s.m.NumSlots - 1
			}
			if flo <= fhi {
				clearBits(scratch, flo, fhi)
			}
		}
	}
	return scratch
}

// selectBlock picks the next decision block: the unassigned block with
// the smallest live domain within a bounded window of the static order
// (fail-first), falling back to the static most-constrained order on ties
// so the search stays deterministic.
func (s *state) selectBlock() int {
	sent := int32(len(s.order))
	best := s.unNext[sent]
	if !s.fcActive {
		// Domains never shrink without per-member forward-checking, so
		// the static order (sorted by initial domain size) already is
		// the fail-first order; the scan would pick the head anyway.
		return s.order[best]
	}
	bestCount := s.domCount[s.order[best]]
	if bestCount > 1 {
		seen := 1
		for pos := s.unNext[best]; pos != sent && seen < failFirstWindow; pos = s.unNext[pos] {
			if c := s.domCount[s.order[pos]]; c < bestCount {
				best, bestCount = pos, c
				if c <= 1 {
					break
				}
			}
			seen++
		}
	}
	return s.order[best]
}

// flushNodes adds this worker's not-yet-flushed node count to the shared
// total.
func (s *state) flushNodes() {
	if s.shared != nil && s.nodes > s.flushed {
		s.shared.nodes.Add(s.nodes - s.flushed)
		s.flushed = s.nodes
	}
}

// checkBudget is the rate-limited slow path of search: context, deadline,
// and node-limit checks, plus — for parallel workers — node-count flushing
// and stop-flag propagation to and from the other workers.
func (s *state) checkBudget() {
	if err := s.ctx.Err(); err != nil {
		s.ctxErr = err
		s.stopped = true
		s.complete = false
		if s.shared != nil {
			s.shared.stop.Store(true)
		}
		return
	}
	if time.Now().After(s.deadline) {
		s.stopped = true
		s.complete = false
		if s.shared != nil {
			s.shared.stop.Store(true)
		}
		return
	}
	if s.shared == nil {
		return
	}
	s.flushNodes()
	if s.shared.stop.Load() || s.shared.nodes.Load() > s.opt.MaxNodes {
		s.stopped = true
		s.complete = false
	}
}

// bound returns the cost bound to prune against, syncing the local view
// with the shared incumbent first. The cached bestCost only ever
// decreases, so a stale read over-explores but never mis-prunes; the
// equal-cost slow paths (pruneSubtree/pruneDecision) reload the record.
func (s *state) bound() int64 {
	if s.shared != nil {
		if rec := s.shared.load(); rec != nil && rec.cost < s.bestCost {
			s.bestCost = rec.cost
		}
	}
	return s.bestCost
}

func (s *state) search(depth int) {
	if s.stopped {
		return
	}
	s.nodes++
	if s.nodes&1023 == 0 {
		s.checkBudget()
		if s.stopped {
			return
		}
	}
	if s.shared == nil && s.nodes > s.opt.MaxNodes {
		s.stopped = true
		s.complete = false
		return
	}
	if depth == len(s.order) {
		if s.shared != nil {
			// Equal-cost leaves may still win on rank; record re-checks
			// cost and rank atomically under the incumbent lock.
			if s.cost <= s.bound() {
				s.shared.record(s)
				if rec := s.shared.load(); rec != nil && rec.cost < s.bestCost {
					s.bestCost = rec.cost
				}
			}
			return
		}
		if s.cost < s.bound() {
			s.bestCost = s.cost
			s.bestSlots = s.extractSlots()
			if s.opt.OnIncumbent != nil {
				s.opt.OnIncumbent(s.cost, s.nodes)
			}
			if s.opt.FirstSolutionOnly {
				s.stopped = true
				s.complete = false
			}
		}
		return
	}
	if s.deadEnds > 0 {
		return
	}
	bound := s.bound()
	lb := s.cost + s.lbUnassigned
	if lb < bound && s.packC >= 0 {
		// The additive bound lets every block pretend its cheapest slot is
		// still free; only where it fails to prune is the packing bound
		// worth its slot scan.
		pb, ok := s.packBound()
		if !ok {
			return
		}
		if pb += s.cost; pb > lb {
			lb = pb
		}
	}
	if lb >= bound {
		// Parallel slow path: an equal-cost subtree whose path prefix
		// still precedes (or contains) the incumbent's rank stays open.
		if s.shared == nil || s.pruneSubtree(depth, lb) {
			return
		}
	}
	bi := s.selectBlock()
	b := &s.blocks[bi]
	// lbRest is invariant across the loop: every recursion restores
	// contrib and lbUnassigned exactly on backtrack.
	lbRest := s.lbUnassigned - s.contrib[bi]
	scratch := s.buildScratch(bi, b, depth)
	if s.shared != nil && s.shared.deques[s.wid].size.Load() < wsPublishLowWater {
		// The deque runs low: open this node for stealing and drain it
		// through the deque instead of the private value loop.
		if desc := s.publish(bi, b, depth, scratch); desc != nil {
			s.searchOpen(desc, bi, b, depth, lbRest)
			return
		}
	}
	for _, t32 := range b.valOrder {
		t := int(t32)
		if lb := s.cost + b.costAt[t] + lbRest; lb >= s.bound() {
			// valOrder is cost-ascending and ordinals increase with it, so
			// once a decision prunes every later one does too.
			if s.shared == nil || s.pruneDecision(depth, b.ordOf[t], lb) {
				break
			}
		}
		if scratch[t>>6]&(1<<(uint(t)&63)) == 0 {
			continue
		}
		if !s.feasible(b, t) {
			continue
		}
		if s.shared != nil {
			s.setPath(depth, step{bi: int32(bi), t: t32, ord: b.ordOf[t]})
		}
		mark, added := s.place(bi, b, t)
		s.search(depth + 1)
		s.unplace(bi, b, t, mark, added)
		if s.stopped {
			return
		}
	}
	if !s.m.RequireAll {
		lb := s.cost + b.skipCost + lbRest
		open := lb < s.bound()
		if !open && s.shared != nil {
			open = !s.pruneDecision(depth, int32(len(b.valOrder)), lb)
		}
		if open {
			// Leave the block unscheduled (leftover), explored after every
			// placement branch.
			if s.shared != nil {
				s.setPath(depth, step{bi: int32(bi), t: -1, ord: int32(len(b.valOrder))})
			}
			s.assignSkip(bi, b)
			s.search(depth + 1)
			s.undoSkip(bi, b)
		}
	}
}

func (s *state) extractSlots() []int {
	slots := make([]int, len(s.m.Items))
	for i := range slots {
		slots[i] = -1
	}
	for bi, b := range s.blocks {
		t := s.assigned[bi]
		if t == -2 {
			t = -1
		}
		for _, i := range b.items {
			slots[i] = t
		}
	}
	return slots
}
