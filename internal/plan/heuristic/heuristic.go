// Package heuristic implements the custom local-search scheduler of
// Appendix C (Algorithm 1), used by the eNodeB/gNodeB operations teams to
// scale change schedule discovery to tens of thousands of nodes.
//
// The algorithm decomposes the problem by timezone (scheduled sequentially
// in UTC-offset order), and within each timezone runs a restart-based local
// search: generate a market permutation, walk markets in order (the
// localize constraint), schedule each market's TACs — sorted by fewest
// conflicts on the current timeslot, then by descending size — placing all
// nodes of a USID into the same timeslot (the consistency constraint),
// respecting per-slot and per-EMS capacities (concurrency), and pushing
// overflow past the window as leftovers. The best schedule by
// (conflict count, weighted total completion time) wins.
//
// Changes are single-window here, matching Algorithm 1's eNodeB/gNodeB
// software-upgrade setting; multi-window durations (node re-tuning,
// construction) are handled by the model-driven path via
// model.Item.Duration.
package heuristic

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cornet/internal/inventory"
)

// Instance is one scheduling sub-problem over an inventory whose elements
// carry market, tac, usid, timezone, and ems attributes.
type Instance struct {
	Inv *inventory.Inventory
	// MaxTimeslots is the scheduling window length.
	MaxTimeslots int
	// SlotCapacity is the global per-slot node capacity C(s).
	SlotCapacity int
	// EMSCapacity bounds concurrent executions per EMS per slot (0 = off).
	EMSCapacity int
	// Conflicts maps node id to slot indexes colliding with existing
	// changes; each collision counts toward the schedule's conflict total.
	Conflicts map[string][]int
	// Restarts is the number of market permutations tried per timezone
	// (the local-search loop of Algorithm 1). Defaults to 8.
	Restarts int
	// LNSRestarts adds a large-neighborhood-search phase after the base
	// restarts: the best permutation of the base phase is perturbed by
	// re-shuffling one seeded random contiguous window of markets per LNS
	// restart, and the passes feed the same reducer — so the result is
	// never worse than the base phase and stays parallelism-invariant
	// (each perturbation derives from (Seed, timezone, Restarts+j)). 0
	// disables the phase; the planning engine enables it automatically
	// for large instances, where re-searching a neighborhood of a good
	// permutation beats more blind restarts.
	LNSRestarts int
	// Parallelism is the restart worker-pool size: within each timezone
	// the restarts run concurrently, reduced to the best candidate under a
	// mutex. 0 means GOMAXPROCS; 1 runs the restarts sequentially. Every
	// restart derives its RNG from (Seed, timezone index, restart index),
	// so the result is identical at any parallelism level.
	Parallelism int
	// Seed makes permutation generation reproducible.
	Seed int64
	// TimeLimit is the search budget; 0 means restart-bounded only. The
	// budget is honoured mid-permutation: when it expires the current pass
	// is abandoned and the best schedule found so far is returned with
	// Result.TimedOut set, so a 100K-node instance can never run unbounded.
	TimeLimit time.Duration
	// OnImprovement, when set, is called whenever a timezone's restart pool
	// adopts a strictly better candidate schedule (the Algorithm 1
	// local-search incumbent). It runs under the reducer lock, possibly
	// from concurrent restart workers, and must be fast and non-blocking;
	// the planning engine uses it to emit incumbent-improvement trace
	// events.
	OnImprovement func(timezone string, restart int)
}

// Result is the discovered schedule.
type Result struct {
	// Slots assigns each scheduled node a timeslot.
	Slots map[string]int
	// Leftovers lists nodes that did not fit the window; they require a
	// new scheduling request (Algorithm 1 lines 8-10).
	Leftovers []string
	Conflicts int
	// WTCT is the weighted total completion time of Eq. 6.
	WTCT int64
	// Makespan is the highest used slot index + 1.
	Makespan int
	// TimedOut reports that the TimeLimit budget expired before the restart
	// loop completed: Slots holds the best schedule found so far and
	// unvisited work is listed in Leftovers.
	TimedOut bool
	// Workers is the restart worker-pool size the search ran with.
	Workers int
}

// budget is the search stopper shared by every loop level: it tracks the
// soft TimeLimit deadline (return best-so-far, TimedOut) and hard context
// cancellation (abort with an error). Checks are rate-limited so the hot
// placement loops pay one counter increment per call.
type budget struct {
	ctx      context.Context
	deadline time.Time
	calls    uint
	timedOut bool
	err      error
}

func newBudget(ctx context.Context, limit time.Duration) *budget {
	b := &budget{ctx: ctx}
	if limit > 0 {
		b.deadline = time.Now().Add(limit)
	}
	return b
}

// fork derives an independent budget sharing the same context and
// absolute deadline, so each restart worker can count and trip on its own
// without racing the others.
func (b *budget) fork() *budget {
	return &budget{ctx: b.ctx, deadline: b.deadline}
}

// absorb folds a forked worker budget's trip state back into the parent
// (called single-threaded, after the workers join).
func (b *budget) absorb(w *budget) {
	if w.timedOut {
		b.timedOut = true
	}
	if w.err != nil && b.err == nil {
		b.err = w.err
	}
}

// exceeded performs a rate-limited budget check; once tripped it stays
// tripped.
func (b *budget) exceeded() bool {
	if b.timedOut || b.err != nil {
		return true
	}
	b.calls++
	if b.calls&63 != 0 {
		return false
	}
	return b.check()
}

// check is the unthrottled probe, used at loop boundaries.
func (b *budget) check() bool {
	if b.timedOut || b.err != nil {
		return true
	}
	if err := b.ctx.Err(); err != nil {
		b.err = err
		return true
	}
	if !b.deadline.IsZero() && time.Now().After(b.deadline) {
		b.timedOut = true
		return true
	}
	return false
}

// SolveContext runs Algorithm 1 over every timezone sequentially; within a
// timezone the restarts run on a worker pool of Instance.Parallelism
// goroutines (the timezones themselves stay ordered because each one's
// start slot and committed capacity depend on its predecessor). When the
// instance's TimeLimit expires mid-search the best schedule found so far is
// returned with TimedOut set; when ctx is cancelled the partial result is
// returned together with an error wrapping ctx.Err().
func SolveContext(ctx context.Context, inst Instance) (Result, error) {
	if inst.Restarts <= 0 {
		inst.Restarts = 8
	}
	bud := newBudget(ctx, inst.TimeLimit)

	// Sort timezones by UTC offset (e.g. Eastern -5 before Central -6 in
	// string terms; numeric parse orders correctly).
	tzGroups := inst.Inv.GroupBy(inventory.AttrTimezone)
	tzs := make([]string, 0, len(tzGroups))
	for tz := range tzGroups {
		tzs = append(tzs, tz)
	}
	sort.Slice(tzs, func(i, j int) bool {
		a, errA := strconv.ParseFloat(tzs[i], 64)
		b, errB := strconv.ParseFloat(tzs[j], 64)
		if errA == nil && errB == nil {
			return a > b // easternmost (least negative) first
		}
		return tzs[i] < tzs[j]
	})

	total := Result{Slots: map[string]int{}, Workers: inst.workerCount()}
	cap := newCapTracker(inst)
	startSlot := 0
	for tzIdx, tz := range tzs {
		if bud.check() {
			// Search budget exhausted: push the rest as leftovers.
			total.Leftovers = append(total.Leftovers, tzGroups[tz]...)
			continue
		}
		sub := inst.subInstance(tzGroups[tz])
		best := solveTimezone(inst, sub, cap, startSlot, tz, tzIdx, bud)
		for id, s := range best.Slots {
			total.Slots[id] = s
			cap.commit(id, s, inst)
		}
		total.Leftovers = append(total.Leftovers, best.Leftovers...)
		total.Conflicts += best.Conflicts
		// Next timezone starts at the last slot with spare capacity used by
		// this sub-schedule (border sharing), or right after it.
		if best.Makespan > 0 {
			last := best.Makespan - 1
			if cap.slotFull(last, inst) {
				startSlot = last + 1
			} else {
				startSlot = last
			}
		}
		if startSlot >= inst.MaxTimeslots {
			startSlot = inst.MaxTimeslots - 1
		}
	}
	recompute(&total, inst)
	total.TimedOut = bud.timedOut || bud.err != nil
	if bud.err != nil {
		return total, fmt.Errorf("heuristic: search aborted: %w", bud.err)
	}
	return total, nil
}

// node holds the attributes Algorithm 1 groups by.
type node struct {
	id     string
	market string
	tac    string
	usid   string
	ems    string
}

type subProblem struct {
	nodes   []node
	markets []string
	// tacsByMarket -> tac -> usids -> node ids
	tacsByMarket map[string][]string
	usidsByTAC   map[string][]string
	nodesByUSID  map[string][]string
}

func (inst Instance) subInstance(ids []string) subProblem {
	sp := subProblem{
		tacsByMarket: map[string][]string{},
		usidsByTAC:   map[string][]string{},
		nodesByUSID:  map[string][]string{},
	}
	seenM := map[string]bool{}
	seenT := map[string]bool{}
	seenU := map[string]bool{}
	for _, id := range ids {
		e, ok := inst.Inv.Get(id)
		if !ok {
			continue
		}
		n := node{
			id:     id,
			market: attrOr(e, inventory.AttrMarket, "m?"),
			tac:    attrOr(e, inventory.AttrTAC, "t?"),
			usid:   attrOr(e, inventory.AttrUSID, id),
			ems:    attrOr(e, inventory.AttrEMS, ""),
		}
		sp.nodes = append(sp.nodes, n)
		if !seenM[n.market] {
			seenM[n.market] = true
			sp.markets = append(sp.markets, n.market)
		}
		tacKey := n.market + "/" + n.tac
		if !seenT[tacKey] {
			seenT[tacKey] = true
			sp.tacsByMarket[n.market] = append(sp.tacsByMarket[n.market], n.tac)
		}
		usidKey := n.tac + "/" + n.usid
		if !seenU[usidKey] {
			seenU[usidKey] = true
			sp.usidsByTAC[n.tac] = append(sp.usidsByTAC[n.tac], n.usid)
		}
		sp.nodesByUSID[n.usid] = append(sp.nodesByUSID[n.usid], id)
	}
	sort.Strings(sp.markets)
	for m := range sp.tacsByMarket {
		sort.Strings(sp.tacsByMarket[m])
	}
	for t := range sp.usidsByTAC {
		sort.Strings(sp.usidsByTAC[t])
	}
	return sp
}

func attrOr(e *inventory.Element, attr, def string) string {
	if v, ok := e.Attr(attr); ok && v != "" {
		return v
	}
	return def
}

// capTracker carries committed capacity usage across timezones so border
// slots are shared correctly.
type capTracker struct {
	slotUse []int
	emsUse  map[string][]int
}

func newCapTracker(inst Instance) *capTracker {
	return &capTracker{
		slotUse: make([]int, inst.MaxTimeslots),
		emsUse:  map[string][]int{},
	}
}

func (c *capTracker) clone(inst Instance) *capTracker {
	cc := &capTracker{slotUse: append([]int(nil), c.slotUse...), emsUse: map[string][]int{}}
	for k, v := range c.emsUse {
		cc.emsUse[k] = append([]int(nil), v...)
	}
	return cc
}

func (c *capTracker) fits(n node, slot int, inst Instance) bool {
	if c.slotUse[slot] >= inst.SlotCapacity {
		return false
	}
	if inst.EMSCapacity > 0 && n.ems != "" {
		if use := c.emsUse[n.ems]; use != nil && use[slot] >= inst.EMSCapacity {
			return false
		}
	}
	return true
}

func (c *capTracker) place(n node, slot int, inst Instance) {
	c.slotUse[slot]++
	if inst.EMSCapacity > 0 && n.ems != "" {
		use := c.emsUse[n.ems]
		if use == nil {
			use = make([]int, inst.MaxTimeslots)
			c.emsUse[n.ems] = use
		}
		use[slot]++
	}
}

func (c *capTracker) commit(id string, slot int, inst Instance) {
	e, ok := inst.Inv.Get(id)
	if !ok {
		return
	}
	c.place(node{
		id:  id,
		ems: attrOr(e, inventory.AttrEMS, ""),
	}, slot, inst)
}

func (c *capTracker) slotFull(slot int, inst Instance) bool {
	return c.slotUse[slot] >= inst.SlotCapacity
}

// workerCount resolves the restart pool size.
func (inst Instance) workerCount() int {
	if inst.Parallelism > 0 {
		return inst.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// restartSeed derives the deterministic per-restart RNG seed from the
// instance seed and the (timezone, restart) pair (splitmix64 finalizer),
// so a restart's permutation does not depend on which worker runs it.
func restartSeed(seed int64, tz, restart int) int64 {
	x := uint64(seed) ^ 0x9e3779b97f4a7c15
	x ^= uint64(tz+1) * 0xbf58476d1ce4e5b9
	x ^= uint64(restart+1) * 0x94d049bb133111eb
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x)
}

// solveTimezone runs the restart loop (Algorithm 1 lines 2-23) for one
// timezone's nodes starting at startSlot. Restarts are dealt to a pool of
// workers and reduced under a mutex to the best candidate by Algorithm 1's
// lexicographic order, ties broken by lowest restart index — making the
// outcome a pure function of the candidate set, independent of worker
// count and goroutine scheduling.
func solveTimezone(inst Instance, sp subProblem, committed *capTracker, startSlot int, tz string, tzIndex int, bud *budget) Result {
	var (
		mu          sync.Mutex
		best        Result
		bestPerm    []string
		bestRestart int
		bestSet     bool
		bestAborted bool
	)
	reduce := func(cand Result, perm []string, restart int, aborted bool) {
		mu.Lock()
		defer mu.Unlock()
		take, improved := false, false
		switch {
		case !bestSet:
			take, improved = true, true
		case bestAborted && !aborted:
			take, improved = true, true // a completed pass beats any truncated one
		case !bestAborted && aborted:
			// keep the completed best
		case better(cand, best):
			take, improved = true, true
		case !better(best, cand) && restart < bestRestart:
			take = true // equal rank: canonical lowest-restart tie-break
		}
		if take {
			best, bestPerm, bestRestart, bestSet, bestAborted = cand, perm, restart, true, aborted
			if improved && inst.OnImprovement != nil {
				inst.OnImprovement(tz, restart)
			}
		}
	}
	// runPool deals restart indexes [base, base+count) to the worker pool;
	// permFor derives each pass's market permutation. Index base+j labels
	// the pass in the reducer's canonical tie-break, so pool phases compose
	// deterministically.
	runPool := func(count, base int, permFor func(j int) []string) {
		workers := inst.workerCount()
		if workers > count {
			workers = count
		}
		if workers < 1 {
			workers = 1
		}
		var next atomic.Int64
		forks := make([]*budget, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wbud := bud.fork()
			forks[w] = wbud
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					j := int(next.Add(1)) - 1
					if j >= count {
						return
					}
					// Restart 0 always runs — it is the pass a budget trip
					// degrades to; later restarts stop once the budget is gone.
					if base+j > 0 && wbud.check() {
						return
					}
					perm := permFor(j)
					cand, aborted := scheduleOnce(inst, sp, committed.clone(inst), startSlot, perm, wbud)
					reduce(cand, perm, base+j, aborted)
					if aborted {
						return
					}
				}
			}()
		}
		wg.Wait()
		for _, wbud := range forks {
			bud.absorb(wbud)
		}
	}
	runPool(inst.Restarts, 0, func(j int) []string {
		perm := append([]string(nil), sp.markets...)
		if j > 0 { // restart 0 uses the deterministic sorted order
			rng := rand.New(rand.NewSource(restartSeed(inst.Seed, tzIndex, j)))
			rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		}
		return perm
	})
	// Large-neighborhood search: re-shuffle one seeded window of the best
	// base permutation per LNS restart. The base is fixed before the phase
	// starts (the reducer's phase-1 result is parallelism-invariant), so
	// every perturbation is a pure function of (Seed, timezone, index).
	if inst.LNSRestarts > 0 && bestSet && !bestAborted && len(sp.markets) >= 3 && !bud.check() {
		basePerm := append([]string(nil), bestPerm...)
		runPool(inst.LNSRestarts, inst.Restarts, func(j int) []string {
			return perturbPerm(basePerm, restartSeed(inst.Seed, tzIndex, inst.Restarts+j))
		})
	}
	return best
}

// perturbPerm copies base and re-shuffles one seeded random contiguous
// window of it — the large-neighborhood move: keep most of a known-good
// market order, re-search the ordering of one segment.
func perturbPerm(base []string, seed int64) []string {
	perm := append([]string(nil), base...)
	rng := rand.New(rand.NewSource(seed))
	n := len(perm)
	wlen := 2 + rng.Intn(n-1) // window of 2..n markets
	lo := rng.Intn(n - wlen + 1)
	sub := perm[lo : lo+wlen]
	rng.Shuffle(len(sub), func(i, j int) { sub[i], sub[j] = sub[j], sub[i] })
	return perm
}

// better implements the lexicographic comparison of Algorithm 1 line 22:
// fewer leftovers first (unschedulable work dominates), then fewer
// conflicts, then lower weighted total completion time.
func better(a, b Result) bool {
	if len(a.Leftovers) != len(b.Leftovers) {
		return len(a.Leftovers) < len(b.Leftovers)
	}
	if a.Conflicts != b.Conflicts {
		return a.Conflicts < b.Conflicts
	}
	return a.WTCT < b.WTCT
}

// scheduleOnce performs one pass over a market permutation. The budget is
// consulted throughout the pass (per slot advance and per USID placement);
// when it trips the pass stops where it stands, the unplaced remainder is
// reported as leftovers, and aborted is returned true so callers can
// discard the partial candidate when a completed one exists.
func scheduleOnce(inst Instance, sp subProblem, cap *capTracker, startSlot int, markets []string, bud *budget) (res Result, aborted bool) {
	res = Result{Slots: map[string]int{}}
	cur := startSlot
	place := func(ids []string, slot int) {
		for _, id := range ids {
			cap.place(lookupNode(inst, id), slot, inst)
			res.Slots[id] = slot
		}
	}
pass:
	for _, mkt := range markets {
		remTACs := append([]string(nil), sp.tacsByMarket[mkt]...)
		marketLo := cur
		for len(remTACs) > 0 && cur < inst.MaxTimeslots {
			if bud.exceeded() {
				aborted = true
				break pass
			}
			if cap.slotFull(cur, inst) {
				cur++
				continue
			}
			// Sort remaining TACs: fewest conflicts on cur first, then
			// largest size (Algorithm 1 line 11).
			sort.SliceStable(remTACs, func(i, j int) bool {
				ci, cj := tacConflicts(inst, sp, remTACs[i], cur), tacConflicts(inst, sp, remTACs[j], cur)
				if ci != cj {
					return ci < cj
				}
				si, sj := tacSize(sp, remTACs[i]), tacSize(sp, remTACs[j])
				if si != sj {
					return si > sj
				}
				return remTACs[i] < remTACs[j]
			})
			progress := false
			var still []string
			for _, tac := range remTACs {
				complete := true
				for _, usid := range sp.usidsByTAC[tac] {
					if bud.exceeded() {
						aborted = true
						break pass
					}
					ids := sp.nodesByUSID[usid]
					if _, done := res.Slots[ids[0]]; done {
						continue
					}
					// Defer conflict-bearing groups while later slots
					// remain: conflict-free schedules dominate usage.
					if groupConflicts(inst, ids, cur) > 0 && cur+1 < inst.MaxTimeslots {
						complete = false
						continue
					}
					// All nodes of a USID go to the same timeslot; check the
					// whole group atomically against slot and EMS capacity.
					if !groupFits(inst, cap, ids, cur) {
						complete = false
						continue
					}
					place(ids, cur)
					progress = true
				}
				if !complete {
					still = append(still, tac)
				}
			}
			remTACs = still
			if !progress || cap.slotFull(cur, inst) {
				cur++
			}
		}
		// Salvage pass: remaining groups are forced into the market's own
		// span [marketLo..] — accepting conflicts — so localize holds;
		// whatever still does not fit becomes leftover work.
		for _, tac := range remTACs {
			for _, usid := range sp.usidsByTAC[tac] {
				if bud.exceeded() {
					aborted = true
					break pass
				}
				ids := sp.nodesByUSID[usid]
				if _, done := res.Slots[ids[0]]; done {
					continue
				}
				placed := false
				for s := marketLo; s < inst.MaxTimeslots; s++ {
					if groupFits(inst, cap, ids, s) {
						place(ids, s)
						if s+1 > cur {
							cur = s
						}
						placed = true
						break
					}
				}
				if !placed {
					res.Leftovers = append(res.Leftovers, ids...)
				}
			}
		}
	}
	if aborted {
		// Whatever the truncated pass did not reach is unscheduled work;
		// rebuild from scratch so salvage-pass leftovers are not duplicated.
		res.Leftovers = res.Leftovers[:0]
		for _, n := range sp.nodes {
			if _, done := res.Slots[n.id]; !done {
				res.Leftovers = append(res.Leftovers, n.id)
			}
		}
	}
	recompute(&res, inst)
	return res, aborted
}

func groupConflicts(inst Instance, ids []string, slot int) int {
	n := 0
	for _, id := range ids {
		n += conflictsAt(inst, id, slot)
	}
	return n
}

// groupFits checks that an entire USID group fits slot cur, accounting for
// the group's own incremental consumption of slot and per-EMS capacity.
func groupFits(inst Instance, cap *capTracker, ids []string, cur int) bool {
	if cap.slotUse[cur]+len(ids) > inst.SlotCapacity {
		return false
	}
	if inst.EMSCapacity > 0 {
		need := map[string]int{}
		for _, id := range ids {
			if ems := lookupNode(inst, id).ems; ems != "" {
				need[ems]++
			}
		}
		for ems, n := range need {
			have := 0
			if use := cap.emsUse[ems]; use != nil {
				have = use[cur]
			}
			if have+n > inst.EMSCapacity {
				return false
			}
		}
	}
	return true
}

func lookupNode(inst Instance, id string) node {
	e, _ := inst.Inv.Get(id)
	if e == nil {
		return node{id: id}
	}
	return node{
		id:  id,
		ems: attrOr(e, inventory.AttrEMS, ""),
	}
}

func tacSize(sp subProblem, tac string) int {
	n := 0
	for _, usid := range sp.usidsByTAC[tac] {
		n += len(sp.nodesByUSID[usid])
	}
	return n
}

func tacConflicts(inst Instance, sp subProblem, tac string, slot int) int {
	n := 0
	for _, usid := range sp.usidsByTAC[tac] {
		for _, id := range sp.nodesByUSID[usid] {
			n += conflictsAt(inst, id, slot)
		}
	}
	return n
}

func conflictsAt(inst Instance, id string, slot int) int {
	for _, s := range inst.Conflicts[id] {
		if s == slot {
			return 1
		}
	}
	return 0
}

// recompute refreshes WTCT (Eq. 6), makespan, and conflicts from Slots.
func recompute(r *Result, inst Instance) {
	perSlot := map[int]int{}
	r.Makespan = 0
	r.Conflicts = 0
	for id, s := range r.Slots {
		perSlot[s]++
		if s+1 > r.Makespan {
			r.Makespan = s + 1
		}
		r.Conflicts += conflictsAt(inst, id, s)
	}
	var wtct int64
	for s, n := range perSlot {
		wtct += int64(s+1) * int64(n)
	}
	r.WTCT = wtct
	sort.Strings(r.Leftovers)
}
