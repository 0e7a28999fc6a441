package engine

import (
	"context"
	"time"

	"cornet/internal/plan/decompose"
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

// softBudget caps a backend's soft time budget at ~90% of the context
// deadline, leaving headroom to assemble and return the best incumbent
// before the hard deadline cancels the search outright.
func softBudget(ctx context.Context, cur time.Duration) time.Duration {
	d, ok := ctx.Deadline()
	if !ok {
		return cur
	}
	rem := time.Until(d) * 9 / 10
	if rem <= 0 {
		rem = time.Millisecond
	}
	if cur == 0 || rem < cur {
		return rem
	}
	return cur
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
	var assignment map[string]int
	var leftovers []string
	if req.Expand != nil {
		assignment, leftovers = req.Expand(sched)
	} else {
		assignment, leftovers = itemAssignment(req.Model, sched)
	}
	s := sched
	return Result{
		Assignment: assignment,
		Leftovers:  leftovers,
		Conflicts:  sched.Conflicts,
		Makespan:   sched.Makespan,
		TimedOut:   !sched.Optimal,
		Schedule:   &s,
	}
}

// DecomposedBackend is the paper's model-driven pipeline: independent
// components solved in parallel by the CP solver, which schedules each
// consistency group as one block. It is named "solver" because it is the
// planner's model-driven path as seen by callers.
type DecomposedBackend struct{}

// Name reports the backend as "solver".
func (DecomposedBackend) Name() string { return "solver" }

// Supports reports whether the request carries a constraint model.
func (DecomposedBackend) Supports(req *Request) bool { return req.Model != nil }

// Solve solves each independent component of the request's model.
func (b DecomposedBackend) Solve(ctx context.Context, req *Request, opt Options) (Result, Stats, error) {
	st := Stats{Backend: b.Name()}
	sopt := opt.Solver
	sopt.TimeLimit = softBudget(ctx, sopt.TimeLimit)
	if sopt.Parallelism == 0 {
		sopt.Parallelism = opt.Parallelism
	}
	sopt.OnIncumbent = chainIncumbent(sopt.OnIncumbent, opt.incumbent)
	sopt.OnSteal = chainSteal(sopt.OnSteal, opt.steal)
	start := time.Now()
	sched, err := decompose.SolveContext(ctx, req.Model, decompose.SolveOptions{Solver: sopt})
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

// Supports reports whether the request carries a heuristic instance.
func (HeuristicBackend) Supports(req *Request) bool { return req.Instance != nil }

// Solve runs the local search on the request's instance.
func (HeuristicBackend) Solve(ctx context.Context, req *Request, opt Options) (Result, Stats, error) {
	inst := *req.Instance
	inst.TimeLimit = softBudget(ctx, inst.TimeLimit)
	if inst.Parallelism == 0 {
		inst.Parallelism = opt.Parallelism
	}
	if inst.LNSRestarts == 0 && req.Size >= 5000 {
		// Large instances benefit from re-searching the best permutation's
		// neighborhoods; match the restart count (or its documented default).
		if inst.LNSRestarts = inst.Restarts; inst.LNSRestarts == 0 {
			inst.LNSRestarts = 8
		}
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
	if st.Restarts == 0 {
		st.Restarts = 8 // the instance's documented default
	}
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
