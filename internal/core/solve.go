package core

import (
	"context"
	"time"

	"cornet/internal/obs"
	"cornet/internal/obs/events"
	"cornet/internal/plan/engine"
	"cornet/internal/plan/heuristic"
	"cornet/internal/plan/solver"
)

// Planning metrics, recorded on every backend run in the process-wide
// registry (cmd/cornetd exposes them at GET /metrics).
var (
	metricBackendRuns = obs.Default.CounterVec("cornet_plan_backend_total",
		"Backend solve attempts by backend and outcome (win, error).",
		"backend", "outcome")
	metricBackendWall = obs.Default.HistogramVec("cornet_plan_backend_duration_seconds",
		"Backend wall-clock solve time.", obs.DefBuckets(), "backend")
	metricBackendNodes = obs.Default.CounterVec("cornet_plan_backend_nodes_total",
		"Branch-and-bound nodes explored by the model-driven backends.", "backend")
	metricIncumbents = obs.Default.CounterVec("cornet_plan_incumbent_improvements_total",
		"Strictly better incumbents published during search, by backend.", "backend")
	metricSolverSteals = obs.Default.CounterVec("cornet_solver_steals_total",
		"Subtree tasks stolen by idle solver workers, by backend.", "backend")
	metricSolverSplits = obs.Default.CounterVec("cornet_solver_splits_total",
		"Search nodes published as stealable subtree descriptors, by backend.", "backend")
	metricSolverReplayNodes = obs.Default.CounterVec("cornet_solver_replay_nodes_total",
		"Prefix decisions replayed by thieves when adopting stolen subtrees, by backend.", "backend")
)

// planRun instruments one backend run: its "plan.solve" span, the
// backend-labelled metrics and the plan.incumbent / plan.backend journal
// events.
type planRun struct {
	sp               *obs.Span
	backend          string
	changeID, tenant string
}

// startPlanRun opens the run's span under ctx; size is the request's
// element count.
func startPlanRun(ctx context.Context, backend string, size int) (context.Context, *planRun) {
	r := &planRun{backend: backend, changeID: obs.ChangeID(ctx), tenant: obs.Tenant(ctx)}
	ctx, r.sp = obs.StartSpan(ctx, "plan.solve")
	r.sp.SetAttr("size", size)
	return ctx, r
}

// incumbent records a strictly better incumbent; kv are the span event's
// attributes.
func (r *planRun) incumbent(kv ...any) {
	metricIncumbents.With(r.backend).Inc()
	r.sp.Event("incumbent-improved", kv...)
	events.Default.Publish(events.Event{
		Type: events.TypeIncumbent, Source: "engine",
		ChangeID: r.changeID, Tenant: r.tenant,
		Fields: map[string]any{"backend": r.backend},
	})
}

// steal records a parallel search's work-stealing totals. It may fire
// once per component on a split solve; counters accumulate and the span
// keeps one event per search.
func (r *planRun) steal(steals, splits, replayNodes int64) {
	if steals > 0 {
		metricSolverSteals.With(r.backend).Add(float64(steals))
	}
	if splits > 0 {
		metricSolverSplits.With(r.backend).Add(float64(splits))
	}
	if replayNodes > 0 {
		metricSolverReplayNodes.With(r.backend).Add(float64(replayNodes))
	}
	if splits > 0 || steals > 0 {
		r.sp.Event("steal-rate",
			"steals", steals, "splits", splits, "replay_nodes", replayNodes)
	}
}

// end closes the span with the run's uniform Stats as attributes,
// including the derived nodes/sec exploration rate, and records the
// run's metrics and journal event.
func (r *planRun) end(st engine.Stats, err error) {
	sp := r.sp
	sp.SetAttr("backend", r.backend)
	if st.Nodes > 0 {
		sp.SetAttr("nodes", st.Nodes)
		if secs := st.Wall.Seconds(); secs > 0 {
			sp.SetAttr("nodes_per_sec", float64(st.Nodes)/secs)
		}
	}
	if st.Restarts > 0 {
		sp.SetAttr("restarts", st.Restarts)
	}
	if st.Workers > 0 {
		sp.SetAttr("workers", st.Workers)
	}
	if st.Splits > 0 || st.Steals > 0 {
		sp.SetAttr("steals", st.Steals)
		sp.SetAttr("splits", st.Splits)
		sp.SetAttr("replay_nodes", st.ReplayNodes)
	}
	if err == nil {
		sp.SetAttr("objective", st.Objective)
		sp.SetAttr("conflicts", st.Conflicts)
	}
	if st.TimedOut {
		sp.SetAttr("timed_out", true)
	}
	sp.Fail(err)
	sp.End()
	outcome := "win"
	if err != nil {
		outcome = "error"
	}
	metricBackendRuns.With(r.backend, outcome).Inc()
	metricBackendWall.With(r.backend).Observe(st.Wall.Seconds())
	if st.Nodes > 0 {
		metricBackendNodes.With(r.backend).Add(float64(st.Nodes))
	}
	fields := map[string]any{
		"backend": r.backend,
		"wall_ns": st.Wall.Nanoseconds(),
		"nodes":   st.Nodes,
	}
	if err != nil {
		fields["error"] = err.Error()
	}
	events.Default.Publish(events.Event{
		Type: events.TypeBackendDone, Source: "engine",
		ChangeID: r.changeID, Tenant: r.tenant, Fields: fields,
	})
}

// solveModel runs the CP solver (or the SolveModel seam) on the built
// model and maps its schedule back to element ids. A schedule that
// stopped short of an optimality proof (node or time budget, or
// first-solution mode) is flagged TimedOut: it is the search's
// best-so-far incumbent.
func (f *Framework) solveModel(ctx context.Context, b *PlanBuild, opt PlanOptions, r *planRun) (*PlanResult, engine.Stats, error) {
	sopt := f.SolverOptions
	if len(opt.Warm) > 0 {
		sopt.WarmSlots = opt.Warm
	}
	if sopt.Parallelism == 0 {
		sopt.Parallelism = opt.Parallelism
	}
	onIncumbent := sopt.OnIncumbent
	sopt.OnIncumbent = func(cost, nodes int64) {
		if onIncumbent != nil {
			onIncumbent(cost, nodes)
		}
		r.incumbent("cost", cost, "nodes", nodes)
	}
	onSteal := sopt.OnSteal
	sopt.OnSteal = func(steals, splits, replayNodes int64) {
		if onSteal != nil {
			onSteal(steals, splits, replayNodes)
		}
		r.steal(steals, splits, replayNodes)
	}
	solve := f.SolveModel
	if solve == nil {
		solve = solver.SolveContext
	}
	start := time.Now()
	sched, err := solve(ctx, b.Req.Model, sopt)
	st := engine.Stats{Backend: "solver", Wall: time.Since(start)}
	if err != nil {
		return nil, st, err
	}
	st.Nodes, st.Objective, st.Conflicts, st.TimedOut = sched.Nodes, sched.Cost, sched.Conflicts, !sched.Optimal
	st.DomainPrunes, st.Steals, st.Splits, st.ReplayNodes = sched.DomainPrunes, sched.Steals, sched.Splits, sched.ReplayNodes
	st.Workers, st.WarmStart = sched.Workers, sched.Warm
	if st.Workers > 0 {
		st.NodesPerWorker = st.Nodes / int64(st.Workers)
	}
	a := b.Translation.Expand(sched)
	assignment := make(map[string]int)
	for slot, ids := range a.BySlot {
		for _, id := range ids {
			assignment[id] = slot
		}
	}
	return &PlanResult{
		Assignment: assignment,
		Leftovers:  a.Leftovers,
		Conflicts:  sched.Conflicts,
		Makespan:   sched.Makespan,
		TimedOut:   !sched.Optimal,
	}, st, nil
}

// solveInstance runs the Appendix-C Algorithm 1 local search on the built
// instance.
func solveInstance(ctx context.Context, b *PlanBuild, r *planRun) (*PlanResult, engine.Stats, error) {
	inst := *b.Req.Instance
	inst.OnImprovement = func(tz string, restart int) {
		r.incumbent("timezone", tz, "restart", restart)
	}
	start := time.Now()
	hres, err := heuristic.SolveContext(ctx, inst)
	st := engine.Stats{Backend: "heuristic", Wall: time.Since(start), Restarts: inst.Restarts}
	if err != nil {
		return nil, st, err
	}
	st.Objective, st.Conflicts, st.TimedOut, st.Workers = hres.WTCT, hres.Conflicts, hres.TimedOut, hres.Workers
	return &PlanResult{
		Assignment: hres.Slots,
		Leftovers:  hres.Leftovers,
		Conflicts:  hres.Conflicts,
		Makespan:   hres.Makespan,
		TimedOut:   hres.TimedOut,
	}, st, nil
}
