package engine

import (
	"context"

	"cornet/internal/obs"
	"cornet/internal/obs/events"
)

// Planning metrics, recorded on every request in the process-wide
// registry (cmd/cornetd exposes them at GET /metrics).
var (
	metricPlanRequests = obs.Default.CounterVec("cornet_plan_requests_total",
		"Planning engine requests by policy and outcome.", "policy", "outcome")
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

// runBackend solves one backend under its own trace span, wiring the
// incumbent-improvement hook and recording the per-backend metrics. The
// span captures the uniform Stats as attributes, including the derived
// nodes/sec exploration rate.
func runBackend(ctx context.Context, b Backend, req *Request, opt Options) (Result, Stats, error) {
	name := b.Name()
	bctx, sp := obs.StartSpan(ctx, "plan.backend."+name)
	changeID, tenant := obs.ChangeID(ctx), obs.Tenant(ctx)
	opt.incumbent = func(kv ...any) {
		metricIncumbents.With(name).Inc()
		sp.Event("incumbent-improved", kv...)
		events.Default.Publish(events.Event{
			Type: events.TypeIncumbent, Source: "engine",
			ChangeID: changeID, Tenant: tenant,
			Fields: map[string]any{"backend": name},
		})
	}
	opt.steal = func(steals, splits, replayNodes int64) {
		// May fire once per component on a split solve; counters
		// accumulate and the span keeps one event per search.
		if steals > 0 {
			metricSolverSteals.With(name).Add(float64(steals))
		}
		if splits > 0 {
			metricSolverSplits.With(name).Add(float64(splits))
		}
		if replayNodes > 0 {
			metricSolverReplayNodes.With(name).Add(float64(replayNodes))
		}
		if splits > 0 || steals > 0 {
			sp.Event("steal-rate",
				"steals", steals, "splits", splits, "replay_nodes", replayNodes)
		}
	}
	res, st, err := b.Solve(bctx, req, opt)
	sp.SetAttr("backend", name)
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
	metricBackendRuns.With(name, outcome).Inc()
	metricBackendWall.With(name).Observe(st.Wall.Seconds())
	if st.Nodes > 0 {
		metricBackendNodes.With(name).Add(float64(st.Nodes))
	}
	fields := map[string]any{
		"backend": name,
		"wall_ns": st.Wall.Nanoseconds(),
		"nodes":   st.Nodes,
	}
	if err != nil {
		fields["error"] = err.Error()
	}
	events.Default.Publish(events.Event{
		Type: events.TypeBackendDone, Source: "engine",
		ChangeID: changeID, Tenant: tenant, Fields: fields,
	})
	return res, st, err
}

// observePlan finalizes the engine-level span and request counter.
func observePlan(sp *obs.Span, policy Policy, st Stats, err error) {
	outcome := "ok"
	if err != nil {
		outcome = "error"
		sp.Fail(err)
	} else {
		sp.SetAttr("winner", st.Backend)
	}
	metricPlanRequests.With(string(policy), outcome).Inc()
	sp.SetAttr("backends", 1)
	sp.End()
}
