// Experiment bench-serve: the multi-tenant serving layer. It drives the
// plan cache, warm-start re-planning, and admission control through the
// same serve.Server the cornetd /api/plan endpoint uses, and writes the
// machine-readable BENCH_serve.json:
//
//   - cold vs hot: distinct intents solved cold, then re-issued as cache
//     hits; the acceptance bar is hit p50 at least 10x below cold p50.
//   - warm-start: a near-identical re-plan (capacity loosened by one)
//     seeded with the cached incumbent must reach the cached objective in
//     fewer search nodes than the cold solve needed to find it.
//   - overload: a 2x-capacity burst of distinct intents against a
//     one-worker admitter must shed with 503-style errors while the
//     served requests' p99 stays bounded by the queue, not the burst.
//
// All three phases need cold solves that spend their node budget: a solve
// the solver's bounds close in a few hundred nodes never backs admission
// up and leaves warm and cold node counts nothing to differ by. The
// intents therefore carry per-EMS capacities only (no set holds every
// element, so the packing bound of DESIGN §8 has nothing to pack against)
// plus uniformity, and the run fails if any cold solve comes back under
// budget.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"cornet/internal/catalog"
	"cornet/internal/core"
	"cornet/internal/inventory"
	"cornet/internal/netgen"
	"cornet/internal/plan/engine"
	"cornet/internal/plan/intent"
	"cornet/internal/plan/serve"
	"cornet/internal/plan/solver"
)

func init() {
	register("bench-serve", "serving layer: cache, warm-start, admission (emits BENCH_serve.json)", runBenchServe)
}

// serveReport is the BENCH_serve.json schema.
type serveReport struct {
	hostHeader
	Scenario  string `json:"scenario"`
	Instances int    `json:"instances"`
	// NodeBudget is the solver's MaxNodes; every cold solve of the run
	// spent it (the run fails otherwise).
	NodeBudget int64 `json:"node_budget"`
	Quick      bool  `json:"quick,omitempty"`

	Cold latencyPhase `json:"cold"`
	Hot  latencyPhase `json:"hot"`
	// HitSpeedupP50 is cold p50 / hit p50 — the headline cache win.
	HitSpeedupP50 float64 `json:"hit_speedup_p50"`

	Warm warmPhase `json:"warm"`

	Overload overloadPhase `json:"overload"`
}

// latencyPhase is one latency distribution over served requests.
type latencyPhase struct {
	Requests int   `json:"requests"`
	P50NS    int64 `json:"p50_ns"`
	P90NS    int64 `json:"p90_ns"`
	P99NS    int64 `json:"p99_ns"`
}

// warmPhase compares a cold solve against the warm-started re-plan of a
// near-identical model seeded with the cold result.
type warmPhase struct {
	ColdObjective int64 `json:"cold_objective"`
	WarmObjective int64 `json:"warm_objective"`
	// ColdNodesToBest is how many search nodes the cold solve explored
	// before publishing the incumbent it finally returned.
	ColdNodesToBest int64 `json:"cold_nodes_to_best"`
	// WarmNodesToSeed is how many nodes the warm solve needed to reach the
	// cached objective: zero when the seed itself is the incumbent.
	WarmNodesToSeed int64 `json:"warm_nodes_to_seed"`
	ColdNodesTotal  int64 `json:"cold_nodes_total"`
	WarmNodesTotal  int64 `json:"warm_nodes_total"`
	WarmApplied     bool  `json:"warm_applied"`
}

// overloadPhase records the 2x-capacity burst.
type overloadPhase struct {
	Offered  int `json:"offered"`
	Capacity int `json:"capacity"` // workers + queue limit
	Served   int `json:"served"`
	Shed     int `json:"shed"`
	// MaxQueueDepth is the deepest admission backlog observed during the
	// burst (sampled).
	MaxQueueDepth int   `json:"max_queue_depth"`
	ServedP99NS   int64 `json:"served_p99_ns"`
}

// serveScenario is the shared fixture: a mid-size RAN slice plus an intent
// generator whose default_capacity parameterises distinct-but-related
// requests (same model family, different fingerprints).
type serveScenario struct {
	net *netgen.Network
	inv *inventory.Inventory
}

func newServeScenario(n int) (*serveScenario, error) {
	net, err := netgen.Cellular(netgen.CellularConfig{
		Seed: 7, Markets: 2, TACsPerMarket: 4, USIDsPerTAC: n/16 + 1,
		GNodeBFraction: 0.5, EMSCount: 4,
	})
	if err != nil {
		return nil, err
	}
	enbs := net.Inv.ByAttr(inventory.AttrNFType, "eNodeB")
	if len(enbs) > n {
		enbs = enbs[:n]
	}
	return &serveScenario{net: net, inv: net.Inv.Subset(enbs)}, nil
}

func (sc *serveScenario) intent(cap int) (*intent.Request, error) {
	comp := plannerComposition{uniformity: true, minimizeConflicts: true}
	return intent.Parse([]byte(comp.intentJSON(cap)))
}

func (sc *serveScenario) opt() core.PlanOptions {
	return core.PlanOptions{Topology: sc.net.Topo, Policy: engine.ForceSolver, Parallelism: 1}
}

// serveFramework builds a planning-only framework with a bounded solver
// budget so every cold solve costs the same exploration effort.
func serveFramework(budget int64, onIncumbent func(cost, nodes int64)) *core.Framework {
	f := core.New(map[string]catalog.ImplKind{"vCE": catalog.ImplScript})
	f.SolverOptions = solver.Options{
		MaxNodes: budget, TimeLimit: 30 * time.Second, OnIncumbent: onIncumbent,
	}
	return f
}

// percentile returns the p-quantile (0..1) of sorted durations.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

func latencyStats(lats []time.Duration) latencyPhase {
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return latencyPhase{
		Requests: len(lats),
		P50NS:    percentile(lats, 0.50).Nanoseconds(),
		P90NS:    percentile(lats, 0.90).Nanoseconds(),
		P99NS:    percentile(lats, 0.99).Nanoseconds(),
	}
}

// incumbentTrace collects the solver's published incumbents for one
// sequential solve (nodes explored when each cost level was reached).
type incumbentTrace struct {
	mu     sync.Mutex
	points []struct{ cost, nodes int64 }
}

func (tr *incumbentTrace) record(cost, nodes int64) {
	tr.mu.Lock()
	tr.points = append(tr.points, struct{ cost, nodes int64 }{cost, nodes})
	tr.mu.Unlock()
}

func (tr *incumbentTrace) reset() {
	tr.mu.Lock()
	tr.points = nil
	tr.mu.Unlock()
}

// nodesToReach returns the node count at which the trace first published
// an incumbent at or below cost (-1 when it never did).
func (tr *incumbentTrace) nodesToReach(cost int64) int64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, p := range tr.points {
		if p.cost <= cost {
			return p.nodes
		}
	}
	return -1
}

func winnerStat(res *core.PlanResult) (nodes, objective int64) {
	for _, st := range res.Stats {
		if st.Winner {
			return st.Nodes, st.Objective
		}
	}
	return 0, 0
}

func runBenchServe(quick bool) error {
	instances := 96
	distinct := 8  // distinct intents in the cold/hot latency phase
	hotRounds := 4 // cache-hit rounds over the same intents
	budget := int64(150_000)
	burst := 24 // overload offered load (2x capacity below)
	if quick {
		instances = 48
		distinct = 4
		hotRounds = 2
		budget = 40_000
		burst = 12
	}
	sc, err := newServeScenario(instances)
	if err != nil {
		return err
	}
	report := serveReport{
		hostHeader: newHostHeader(),
		Scenario:   "serving layer over uniformity+minconf intents, per-EMS capacities only (capacity-parameterised family; no covering set, so every cold solve spends its node budget)",
		Instances:  sc.inv.Len(),
		NodeBudget: budget,
		Quick:      quick,
	}
	ctx := context.Background()
	// spentBudget guards the scenario against going soft: a cold solve
	// that stops short of the budget was closed by the solver's bounds,
	// and the phases below no longer measure what they say.
	spentBudget := func(phase string, res *core.PlanResult) error {
		if nodes, _ := winnerStat(res); nodes < budget {
			return fmt.Errorf("%s: cold solve finished in %d nodes, under the %d-node budget: the scenario no longer holds the solver busy", phase, nodes, budget)
		}
		return nil
	}
	fmt.Printf("scenario: %d instances, node budget %d, %d distinct intents\n\n",
		sc.inv.Len(), budget, distinct)

	// --- Phase 1: cold vs hot ------------------------------------------
	// Warm starts disabled so every distinct intent pays a full cold
	// solve; the re-issued rounds then hit the cache.
	{
		srv := serve.New(serveFramework(budget, nil), serve.Config{WarmDelta: -1})
		var cold, hot []time.Duration
		for i := 0; i < distinct; i++ {
			req, err := sc.intent(4 + 2*i)
			if err != nil {
				return err
			}
			start := time.Now()
			r, err := srv.Plan(ctx, "bench", req, sc.inv, sc.opt())
			if err != nil {
				return fmt.Errorf("cold solve %d: %w", i, err)
			}
			cold = append(cold, time.Since(start))
			if r.CacheHit {
				return fmt.Errorf("cold solve %d unexpectedly hit the cache", i)
			}
			if err := spentBudget("cold", r.Result); err != nil {
				return err
			}
		}
		for round := 0; round < hotRounds; round++ {
			for i := 0; i < distinct; i++ {
				req, err := sc.intent(4 + 2*i)
				if err != nil {
					return err
				}
				start := time.Now()
				r, err := srv.Plan(ctx, "bench", req, sc.inv, sc.opt())
				if err != nil {
					return fmt.Errorf("hot solve %d: %w", i, err)
				}
				hot = append(hot, time.Since(start))
				if !r.CacheHit {
					return fmt.Errorf("round %d intent %d missed the cache", round, i)
				}
			}
		}
		srv.Stop()
		report.Cold = latencyStats(cold)
		report.Hot = latencyStats(hot)
		if report.Hot.P50NS > 0 {
			report.HitSpeedupP50 = float64(report.Cold.P50NS) / float64(report.Hot.P50NS)
		}
		fmt.Printf("%-6s %10s %12s %12s %12s\n", "phase", "requests", "p50", "p90", "p99")
		for _, row := range []struct {
			name string
			ph   latencyPhase
		}{{"cold", report.Cold}, {"hot", report.Hot}} {
			fmt.Printf("%-6s %10d %12s %12s %12s\n", row.name, row.ph.Requests,
				time.Duration(row.ph.P50NS), time.Duration(row.ph.P90NS), time.Duration(row.ph.P99NS))
		}
		ok := "MET"
		if report.HitSpeedupP50 < 10 {
			ok = "MISSED"
		}
		fmt.Printf("cache-hit speedup (p50): %.0fx  [acceptance >=10x: %s]\n\n", report.HitSpeedupP50, ok)
	}

	// --- Phase 2: warm-start re-planning -------------------------------
	// Solve capacity C cold, then capacity C+1: same model family, item
	// signatures unchanged, so the serving layer seeds the solver with the
	// cached assignment. The warm solve starts at the cached objective.
	{
		trace := &incumbentTrace{}
		srv := serve.New(serveFramework(budget, trace.record), serve.Config{})
		const warmCap = 6
		req, err := sc.intent(warmCap)
		if err != nil {
			return err
		}
		coldRes, err := srv.Plan(ctx, "bench", req, sc.inv, sc.opt())
		if err != nil {
			return fmt.Errorf("warm-phase cold solve: %w", err)
		}
		if err := spentBudget("warm-phase cold solve", coldRes.Result); err != nil {
			return err
		}
		coldNodes, coldObj := winnerStat(coldRes.Result)
		report.Warm.ColdNodesTotal = coldNodes
		report.Warm.ColdObjective = coldObj
		report.Warm.ColdNodesToBest = trace.nodesToReach(coldObj)

		trace.reset()
		req2, err := sc.intent(warmCap + 1)
		if err != nil {
			return err
		}
		warmRes, err := srv.Plan(ctx, "bench", req2, sc.inv, sc.opt())
		if err != nil {
			return fmt.Errorf("warm re-plan: %w", err)
		}
		warmNodes, warmObj := winnerStat(warmRes.Result)
		report.Warm.WarmNodesTotal = warmNodes
		report.Warm.WarmObjective = warmObj
		report.Warm.WarmApplied = warmRes.Warm
		if warmRes.Warm {
			// The seed is installed as the incumbent before node one.
			report.Warm.WarmNodesToSeed = 0
		} else {
			report.Warm.WarmNodesToSeed = trace.nodesToReach(coldObj)
		}
		srv.Stop()
		fmt.Printf("warm-start: cold objective %d found after %d nodes (of %d total)\n",
			coldObj, report.Warm.ColdNodesToBest, coldNodes)
		fmt.Printf("            warm re-plan objective %d at the cached objective after %d nodes (of %d total), seed applied: %v\n",
			warmObj, report.Warm.WarmNodesToSeed, warmNodes, warmRes.Warm)
		ok := "MET"
		if !warmRes.Warm || report.Warm.WarmNodesToSeed >= report.Warm.ColdNodesToBest {
			ok = "MISSED"
		}
		fmt.Printf("            [acceptance: warm reaches cached objective in fewer nodes: %s]\n\n", ok)
	}

	// --- Phase 3: overload shedding ------------------------------------
	// A burst of distinct intents (cache and singleflight defeated) at 2x
	// the admitter's capacity: one worker plus a bounded queue. The excess
	// must shed; the served requests' tail must stay bounded by the queue
	// depth rather than the burst size. Each solve runs the whole budget:
	// the worker has to stay busy while the burst arrives, or the queue
	// never fills and nothing sheds.
	{
		capacity := burst / 2 // workers + queue limit
		srv := serve.New(serveFramework(budget, nil), serve.Config{
			WarmDelta: -1,
			Admission: serve.AdmitConfig{Workers: 1, QueueLimit: capacity - 1},
		})
		var mu sync.Mutex
		var servedLat []time.Duration
		var shed int
		var soft error
		maxDepth := 0
		stopSampler := make(chan struct{})
		var samplerDone sync.WaitGroup
		samplerDone.Add(1)
		go func() {
			defer samplerDone.Done()
			for {
				select {
				case <-stopSampler:
					return
				case <-time.After(time.Millisecond):
					if d := srv.Admitter().Depth(); d > maxDepth {
						maxDepth = d
					}
				}
			}
		}()
		var wg sync.WaitGroup
		for i := 0; i < burst; i++ {
			req, err := sc.intent(40 + i)
			if err != nil {
				return err
			}
			wg.Add(1)
			go func(req *intent.Request) {
				defer wg.Done()
				start := time.Now()
				r, err := srv.Plan(ctx, "burst", req, sc.inv, sc.opt())
				lat := time.Since(start)
				mu.Lock()
				defer mu.Unlock()
				var se *serve.ShedError
				switch {
				case err == nil:
					servedLat = append(servedLat, lat)
					if err := spentBudget("overload", r.Result); err != nil {
						soft = err
					}
				case errors.As(err, &se):
					shed++
				}
			}(req)
		}
		wg.Wait()
		close(stopSampler)
		samplerDone.Wait()
		srv.Stop()
		if soft != nil {
			return soft
		}
		stats := latencyStats(servedLat)
		report.Overload = overloadPhase{
			Offered: burst, Capacity: capacity,
			Served: len(servedLat), Shed: shed,
			MaxQueueDepth: maxDepth, ServedP99NS: stats.P99NS,
		}
		fmt.Printf("overload: offered %d at capacity %d -> served %d, shed %d (max queue depth %d)\n",
			burst, capacity, len(servedLat), shed, maxDepth)
		fmt.Printf("          served p99 %s\n", time.Duration(stats.P99NS))
		ok := "MET"
		if shed == 0 || len(servedLat) == 0 {
			ok = "MISSED"
		}
		fmt.Printf("          [acceptance: sheds under 2x load while serving the rest: %s]\n\n", ok)
	}

	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_serve.json", append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote BENCH_serve.json")
	return nil
}
