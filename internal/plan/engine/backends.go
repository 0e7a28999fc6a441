package engine

import (
	"context"
	"time"

	"cornet/internal/plan/heuristic"
	"cornet/internal/plan/model"
	"cornet/internal/plan/solver"
)

// SolverLimits bounds the CP search of the model-driven backends; it is
// the solver package's Options, re-exported so engine callers configure
// limits without importing the solver directly.
type SolverLimits = solver.Options

// chainIncumbent composes a caller-supplied solver incumbent callback
// with the engine's instrumentation notifier.
func chainIncumbent(prev func(cost, nodes int64), notify func(kv ...any)) func(cost, nodes int64) {
	if notify == nil {
		return prev
	}
	return func(cost, nodes int64) {
		if prev != nil {
			prev(cost, nodes)
		}
		notify("cost", cost, "nodes", nodes)
	}
}

// chainSteal composes a caller-supplied solver steal callback with the
// engine's instrumentation notifier.
func chainSteal(prev, notify func(steals, splits, replayNodes int64)) func(steals, splits, replayNodes int64) {
	if notify == nil {
		return prev
	}
	return func(steals, splits, replayNodes int64) {
		if prev != nil {
			prev(steals, splits, replayNodes)
		}
		notify(steals, splits, replayNodes)
	}
}

// fromSchedule converts a model schedule to the engine's uniform result
// and fills the model-side stats. A schedule that stopped short of an
// optimality proof (node or time budget, or first-solution mode) is
// flagged TimedOut: it is the search's best-so-far incumbent.
func fromSchedule(req *Request, sched model.Schedule, st *Stats) Result {
	st.Nodes = sched.Nodes
	st.Objective = sched.Cost
	st.Conflicts = sched.Conflicts
	st.TimedOut = !sched.Optimal
	st.Workers = sched.Workers
	if st.Workers > 0 {
		st.NodesPerWorker = st.Nodes / int64(st.Workers)
	}
	st.DomainPrunes = sched.DomainPrunes
	st.Steals = sched.Steals
	st.Splits = sched.Splits
	st.ReplayNodes = sched.ReplayNodes
	st.WarmStart = sched.Warm
	assignment, leftovers := req.Expand(sched)
	return Result{
		Assignment: assignment,
		Leftovers:  leftovers,
		Conflicts:  sched.Conflicts,
		Makespan:   sched.Makespan,
		TimedOut:   !sched.Optimal,
	}
}

// SolverBackend is the paper's model-driven pipeline: the CP solver,
// which solves independent components separately and schedules each
// consistency group as one block.
type SolverBackend struct{}

// Name reports the backend as "solver".
func (SolverBackend) Name() string { return "solver" }

// Solve solves the request's model.
func (b SolverBackend) Solve(ctx context.Context, req *Request, opt Options) (Result, Stats, error) {
	st := Stats{Backend: b.Name()}
	sopt := opt.Solver
	if sopt.Parallelism == 0 {
		sopt.Parallelism = opt.Parallelism
	}
	sopt.OnIncumbent = chainIncumbent(sopt.OnIncumbent, opt.incumbent)
	sopt.OnSteal = chainSteal(sopt.OnSteal, opt.steal)
	start := time.Now()
	sched, err := solver.SolveContext(ctx, req.Model, sopt)
	st.Wall = time.Since(start)
	if err != nil {
		return Result{}, st, err
	}
	return fromSchedule(req, sched, &st), st, nil
}

// HeuristicBackend runs the Appendix-C Algorithm 1 local search over the
// request's attribute-grouped instance.
type HeuristicBackend struct{}

// Name reports the backend as "heuristic".
func (HeuristicBackend) Name() string { return "heuristic" }

// Solve runs the local search on the request's instance.
func (HeuristicBackend) Solve(ctx context.Context, req *Request, opt Options) (Result, Stats, error) {
	inst := *req.Instance
	if inst.Parallelism == 0 {
		inst.Parallelism = opt.Parallelism
	}
	if inst.Restarts <= 0 {
		inst.Restarts = heuristic.DefaultRestarts
	}
	if inst.LNSRestarts == 0 && req.Size >= 5000 {
		// Large instances benefit from re-searching the best permutation's
		// neighborhoods; match the restart count.
		inst.LNSRestarts = inst.Restarts
	}
	if notify := opt.incumbent; notify != nil {
		prev := inst.OnImprovement
		inst.OnImprovement = func(tz string, restart int) {
			if prev != nil {
				prev(tz, restart)
			}
			notify("timezone", tz, "restart", restart)
		}
	}
	st := Stats{Backend: "heuristic", Restarts: inst.Restarts}
	start := time.Now()
	hres, err := heuristic.SolveContext(ctx, inst)
	st.Wall = time.Since(start)
	if err != nil {
		return Result{}, st, err
	}
	st.Objective = hres.WTCT
	st.Conflicts = hres.Conflicts
	st.TimedOut = hres.TimedOut
	st.Workers = hres.Workers
	return Result{
		Assignment: hres.Slots,
		Leftovers:  append([]string(nil), hres.Leftovers...),
		Conflicts:  hres.Conflicts,
		Makespan:   hres.Makespan,
		TimedOut:   hres.TimedOut,
	}, st, nil
}
