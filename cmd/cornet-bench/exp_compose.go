// Experiment bench-compose: concurrent change composition throughput
// (DESIGN.md §16). K teams submit market-scoped upgrades of one shared
// fleet concurrently; the composer merges them into one composed
// schedule solved as a single plan. The comparison is against the
// uncomposed alternative — each team planning its scope separately and
// the changes stacking serially to respect the shared per-NF-type
// capacity. It writes the machine-readable BENCH_compose.json:
//
//   - merged: every round's K concurrent submissions must collapse into
//     exactly one solve, and the composed makespan must equal planning
//     the union scope directly (the composition-identity acceptance
//     criterion).
//   - serial: K separate scope plans; their stacked makespan (changes
//     queued behind each other on the shared capacity) is the cost of
//     not composing.
//   - mixed: disjoint and conflicting submissions together; the
//     conflicting ones queue behind the generation they collided with
//     and land in the next, so offered = merged + queued-then-merged.
//   - default_flags: the same K teams through one long-lived composer
//     with cornetd's defaults (DefaultWindow, no MaxBatch) — the path
//     the merged phase's MaxBatch = K never measured. Round 1 is cold
//     and waits out the window; later rounds seal when the cohort is back.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cornet/internal/catalog"
	"cornet/internal/compose"
	composeserve "cornet/internal/compose/serve"
	"cornet/internal/core"
	"cornet/internal/inventory"
	"cornet/internal/plan/engine"
	"cornet/internal/plan/intent"
	"cornet/internal/testbed"
)

func init() {
	register("bench-compose", "composition: merged single-solve vs serial stacked planning (emits BENCH_compose.json)", runBenchCompose)
}

// hostHeader is the context a committed number needs to be compared with
// another: the host facts bench/ stamps on its own runs.
type hostHeader struct {
	Revision   string `json:"revision"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
}

func newHostHeader() hostHeader {
	rev := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		rev = strings.TrimSpace(string(out))
	}
	return hostHeader{Revision: rev, GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU()}
}

// composeReport is the BENCH_compose.json schema.
type composeReport struct {
	hostHeader
	Scenario string `json:"scenario"`
	Elements int    `json:"elements"`
	Teams    int    `json:"teams"`
	Rounds   int    `json:"rounds"`
	Quick    bool   `json:"quick,omitempty"`

	// UnionMakespan is the reference: the union scope planned directly.
	UnionMakespan int `json:"union_makespan"`

	Merged       composeMergedPhase       `json:"merged"`
	Serial       composeSerialPhase       `json:"serial"`
	Mixed        composeMixedPhase        `json:"mixed"`
	DefaultFlags composeDefaultFlagsPhase `json:"default_flags"`
}

// composeMergedPhase is the composed path: K concurrent submissions per
// round, one solve, union-identical cost.
type composeMergedPhase struct {
	Submissions int `json:"submissions"`
	// Solves counts planner invocations across all rounds; the acceptance
	// bar is exactly one per round.
	Solves   int   `json:"solves"`
	Makespan int   `json:"makespan"`
	P50NS    int64 `json:"p50_ns"`
	P99NS    int64 `json:"p99_ns"`
	// CostEqualsUnion reports the acceptance criterion: every round's
	// composed makespan equals the direct union plan's.
	CostEqualsUnion bool `json:"cost_equals_union"`
}

// composeSerialPhase is the uncomposed path: each team plans its scope
// separately; the changes stack on the shared capacity.
type composeSerialPhase struct {
	Solves int `json:"solves"`
	// StackedMakespan sums the per-scope makespans — the windows the
	// fleet spends under change when teams queue behind each other
	// instead of composing.
	StackedMakespan int   `json:"stacked_makespan"`
	P50NS           int64 `json:"p50_ns"`
	// MakespanRatio is stacked / union — the composition win in
	// maintenance windows.
	MakespanRatio float64 `json:"makespan_ratio"`
}

// composeMixedPhase drives disjoint and conflicting submissions through
// one composer with queue disposition.
type composeMixedPhase struct {
	Offered    int     `json:"offered"`
	Merged     int     `json:"merged"`
	Queued     int     `json:"queued"`
	WallNS     int64   `json:"wall_ns"`
	PerSecWall float64 `json:"changes_per_sec"`
}

// composeDefaultFlagsPhase drives the K teams through one composer left at
// cornetd's defaults for several rounds and reports how long generations
// stayed open before sealing (compose.Outcome.Waited).
type composeDefaultFlagsPhase struct {
	Rounds   int   `json:"rounds"`
	WindowNS int64 `json:"window_ns"`
	Solves   int   `json:"solves"`
	// Seals counts the rounds' generations by what sealed them.
	Seals map[string]int `json:"seals"`
	// FirstRoundWaitNS is the cold round: nobody is remembered, so the
	// generation waits out the window.
	FirstRoundWaitNS int64 `json:"first_round_wait_ns"`
	// LaterWaitP50NS is the seal wait of rounds 2+: first join to the join
	// that brought the last remembered team back.
	LaterWaitP50NS int64 `json:"later_rounds_wait_p50_ns"`
	// LaterRoundP50NS is rounds 2+ end to end: wait + merge + union solve.
	LaterRoundP50NS int64 `json:"later_rounds_p50_ns"`
	CostEqualsUnion bool  `json:"cost_equals_union"`
}

// composeScenario is the shared fixture: a vCE fleet split evenly across
// team-owned markets, one delta per team scoped to its market.
type composeScenario struct {
	inv   *inventory.Inventory
	req   *intent.Request
	order []string // markets, sorted
}

func newComposeScenario(teams, perMarket int) *composeScenario {
	tb := testbed.New(31)
	total := teams * perMarket
	for i := 0; i < total; i++ {
		tb.MustAdd(testbed.NewNF(fmt.Sprintf("vce-%03d", i), "vCE", "v1"))
	}
	n := -1
	inv := testbed.MirrorInventory(tb, func(*testbed.NF) map[string]string {
		n++
		return map[string]string{inventory.AttrMarket: fmt.Sprintf("m%02d", n%teams)}
	})
	// Capacity is per market (2 concurrent upgrades per market per
	// window), so disjoint-market changes can share windows: that sharing
	// is exactly what composition exploits and serial stacking wastes.
	slots := total/2 + 1
	start, _ := time.Parse(intent.TimeLayout, "2026-01-01 00:00:00")
	req := &intent.Request{
		SchedulingWindow: intent.Window{
			Start:       "2026-01-01 00:00:00",
			End:         start.Add(time.Duration(slots) * time.Hour).Format(intent.TimeLayout),
			Granularity: intent.Granularity{Metric: "hour", Value: 1},
		},
		SchedulableAttribute: inventory.AttrCommonID,
		Constraints: []intent.Constraint{{
			Name:               intent.Concurrency,
			BaseAttribute:      inventory.AttrCommonID,
			AggregateAttribute: inventory.AttrMarket,
			DefaultCapacity:    2,
		}},
	}
	if err := req.Validate(); err != nil {
		panic(err)
	}
	return &composeScenario{inv: inv, req: req, order: inv.AttrValues(inventory.AttrMarket)}
}

// teamDelta is one team's footprint, derived the way cornetd derives a
// submission's: node ops over its market, signed with the team's payload.
func (sc *composeScenario) teamDelta(changeID, market, version string) *compose.Delta {
	d, err := composeserve.Delta(changeID, "team-"+market, sc.req, sc.inv,
		composeserve.Scope{Markets: []string{market}},
		composeserve.PayloadSig("software-upgrade", map[string]string{"sw_version": version}))
	if err != nil {
		panic(err)
	}
	return d
}

func runBenchCompose(quick bool) error {
	teams, perMarket, rounds := 6, 8, 5
	if quick {
		teams, perMarket, rounds = 4, 4, 2
	}
	sc := newComposeScenario(teams, perMarket)
	f := core.New(map[string]catalog.ImplKind{"vCE": catalog.ImplScript})
	opt := core.PlanOptions{RequireAll: true, Policy: engine.ForceSolver, Parallelism: 1}
	ctx := context.Background()
	report := composeReport{
		hostHeader: newHostHeader(),
		Scenario:   "K market-scoped team upgrades of one shared vCE fleet",
		Elements:   sc.inv.Len(),
		Teams:      teams,
		Rounds:     rounds,
		Quick:      quick,
	}
	// planComposed is every phase's solve: plan the composed delta's
	// element set as one schedule.
	planComposed := func(ctx context.Context, composed *compose.Delta) (*core.PlanResult, error) {
		_, ids := composeserve.Owners([]*compose.Delta{composed})
		return f.PlanScheduleRequestContext(ctx, sc.req, sc.inv.Subset(ids), opt)
	}
	// submitRound submits every team's delta for the round concurrently
	// and returns the shared outcome and the round's wall time.
	submitRound := func(c *compose.Composer, round int) (*compose.Outcome, time.Duration) {
		outs := make([]*compose.Outcome, len(sc.order))
		// Derived before the clock starts: a round times the composer and
		// its one solve, not the per-team translate behind each delta.
		deltas := make([]*compose.Delta, len(sc.order))
		for n, m := range sc.order {
			deltas[n] = sc.teamDelta(fmt.Sprintf("chg-r%d-%s", round, m), m, fmt.Sprintf("v%d", round))
		}
		start := time.Now()
		var wg sync.WaitGroup
		for n := range sc.order {
			wg.Add(1)
			go func(n int) {
				defer wg.Done()
				out, err := c.Submit(ctx, deltas[n], compose.Reject)
				if err != nil {
					panic(err)
				}
				outs[n] = out
			}(n)
		}
		wg.Wait()
		return outs[0], time.Since(start)
	}
	fmt.Printf("scenario: %d elements, %d teams x %d elements, %d rounds\n\n",
		sc.inv.Len(), teams, perMarket, rounds)

	// --- Reference: the union scope planned directly -------------------
	union, err := f.PlanScheduleRequestContext(ctx, sc.req, sc.inv, opt)
	if err != nil {
		return fmt.Errorf("union plan: %w", err)
	}
	report.UnionMakespan = union.Makespan
	fmt.Printf("union plan: makespan %d window(s), method %s\n\n", union.Makespan, union.Method)

	// --- Phase 1: merged — K concurrent submissions, one solve ---------
	{
		var solves atomic.Int32
		var lats []time.Duration
		equal := true
		for round := 0; round < rounds; round++ {
			var roundRes *core.PlanResult
			c := compose.NewComposer(compose.Config{
				Strategy: compose.SubtreeStrategy{},
				Window:   time.Second, MaxBatch: teams,
				Solve: func(ctx context.Context, composed *compose.Delta, members []*compose.Delta) (any, error) {
					solves.Add(1)
					res, err := planComposed(ctx, composed)
					roundRes = res
					return res, err
				},
			})
			_, wall := submitRound(c, round)
			lats = append(lats, wall)
			c.Stop()
			if roundRes == nil || roundRes.Makespan != union.Makespan {
				equal = false
			}
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		report.Merged = composeMergedPhase{
			Submissions:     rounds * teams,
			Solves:          int(solves.Load()),
			Makespan:        union.Makespan,
			P50NS:           percentile(lats, 0.50).Nanoseconds(),
			P99NS:           percentile(lats, 0.99).Nanoseconds(),
			CostEqualsUnion: equal,
		}
		ok := "MET"
		if !equal || int(solves.Load()) != rounds {
			ok = "MISSED"
		}
		fmt.Printf("merged: %d submissions -> %d solve(s) across %d rounds, p50 %s\n",
			report.Merged.Submissions, report.Merged.Solves, rounds, percentile(lats, 0.50))
		fmt.Printf("        [acceptance: one solve per round, composed cost == union cost: %s]\n\n", ok)
	}

	// --- Phase 2: serial — each scope planned alone, changes stacked ---
	{
		var lats []time.Duration
		stacked := 0
		for _, m := range sc.order {
			start := time.Now()
			res, err := f.PlanScheduleRequestContext(ctx, sc.req, sc.inv.Subset(sc.inv.ByAttr(inventory.AttrMarket, m)), opt)
			if err != nil {
				return fmt.Errorf("serial plan %s: %w", m, err)
			}
			lats = append(lats, time.Since(start))
			stacked += res.Makespan
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		report.Serial = composeSerialPhase{
			Solves:          teams,
			StackedMakespan: stacked,
			P50NS:           percentile(lats, 0.50).Nanoseconds(),
		}
		if union.Makespan > 0 {
			report.Serial.MakespanRatio = float64(stacked) / float64(union.Makespan)
		}
		fmt.Printf("serial: %d solves, stacked makespan %d vs composed %d (%.1fx more windows under change)\n\n",
			teams, stacked, union.Makespan, report.Serial.MakespanRatio)
	}

	// --- Phase 3: mixed — disjoint plus conflicting, queue disposition -
	{
		c := compose.NewComposer(compose.Config{
			Strategy: compose.SubtreeStrategy{},
			Window:   100 * time.Millisecond, MaxRequeue: teams,
			Solve: func(ctx context.Context, composed *compose.Delta, members []*compose.Delta) (any, error) {
				return planComposed(ctx, composed)
			},
		})
		// Every team submits its scope, plus one rival per team submitting
		// a different payload against the same market: the rival conflicts
		// and queues behind the merged generation.
		offered := 2 * teams
		var wg sync.WaitGroup
		var queued atomic.Int32
		start := time.Now()
		for _, m := range sc.order {
			wg.Add(2)
			go func(m string) {
				defer wg.Done()
				d := sc.teamDelta("chg-mx-"+m, m, "vA")
				if _, err := c.Submit(ctx, d, compose.Reject); err != nil {
					panic(err)
				}
			}(m)
			go func(m string) {
				defer wg.Done()
				time.Sleep(20 * time.Millisecond) // lose the race: collide, queue
				d := sc.teamDelta("chg-mx-rival-"+m, m, "vB")
				out, err := c.Submit(ctx, d, compose.Queue)
				if err != nil {
					panic(err)
				}
				if out != nil {
					queued.Add(1)
				}
			}(m)
		}
		wg.Wait()
		wall := time.Since(start)
		c.Stop()
		report.Mixed = composeMixedPhase{
			Offered: offered, Merged: offered, Queued: int(queued.Load()),
			WallNS:     wall.Nanoseconds(),
			PerSecWall: float64(offered) / wall.Seconds(),
		}
		fmt.Printf("mixed: %d offered (%d disjoint + %d conflicting-queued) all completed in %s (%.1f changes/sec)\n\n",
			offered, teams, int(queued.Load()), wall.Round(time.Millisecond), report.Mixed.PerSecWall)
	}

	// --- Phase 4: default flags — one composer, window-or-cohort seals ---
	{
		dfRounds := 20
		if quick {
			dfRounds = 3
		}
		var solves atomic.Int32
		c := compose.NewComposer(compose.Config{
			Strategy: compose.SubtreeStrategy{},
			Solve: func(ctx context.Context, composed *compose.Delta, members []*compose.Delta) (any, error) {
				solves.Add(1)
				return planComposed(ctx, composed)
			},
		})
		phase := composeDefaultFlagsPhase{Rounds: dfRounds, WindowNS: compose.DefaultWindow.Nanoseconds(),
			Seals: map[string]int{}, CostEqualsUnion: true}
		var waits, walls []time.Duration
		for round := 0; round < dfRounds; round++ {
			out, wall := submitRound(c, round)
			phase.Seals[string(out.Seal)]++
			if res, _ := out.Result.(*core.PlanResult); res == nil || res.Makespan != union.Makespan || len(out.Members) != teams {
				phase.CostEqualsUnion = false
			}
			if round == 0 {
				phase.FirstRoundWaitNS = out.Waited.Nanoseconds()
				continue
			}
			waits, walls = append(waits, out.Waited), append(walls, wall)
		}
		c.Stop()
		sort.Slice(waits, func(i, j int) bool { return waits[i] < waits[j] })
		sort.Slice(walls, func(i, j int) bool { return walls[i] < walls[j] })
		phase.Solves = int(solves.Load())
		phase.LaterWaitP50NS = percentile(waits, 0.50).Nanoseconds()
		phase.LaterRoundP50NS = percentile(walls, 0.50).Nanoseconds()
		report.DefaultFlags = phase
		ok := "MET"
		if !phase.CostEqualsUnion || phase.Solves != dfRounds || phase.Seals["cohort"] != dfRounds-1 {
			ok = "MISSED"
		}
		fmt.Printf("default flags: %d rounds, window %s: round 1 waited %s, rounds 2+ waited p50 %s (round p50 %s), seals %v\n",
			dfRounds, compose.DefaultWindow, time.Duration(phase.FirstRoundWaitNS).Round(time.Millisecond),
			percentile(waits, 0.50), percentile(walls, 0.50), phase.Seals)
		fmt.Printf("        [acceptance: one solve per round of all %d teams at union cost, rounds 2+ sealed by cohort: %s]\n\n", teams, ok)
	}

	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_compose.json", append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote BENCH_compose.json")
	return nil
}
