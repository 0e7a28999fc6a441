// Package engine runs CORNET's schedule-planning backends behind one
// pluggable interface with deadlines and uniform search statistics.
//
// The paper's planner (Section 3.3) uses a generic constraint solver below
// a scale limit and the Appendix-C heuristic above it. That choice is made
// once, in core.ResolvePolicy, which builds the one representation the
// chosen backend needs; the engine runs the backend whose representation
// the request carries: the CP solver for a Model, Algorithm 1 for an
// Instance.
//
// Every backend reports uniform Stats (nodes explored, restarts, wall
// time, objective, winner flag), which the cmd/ binaries surface.
package engine

import (
	"context"
	"errors"
	"fmt"
	"time"

	"cornet/internal/obs"
	"cornet/internal/plan/heuristic"
	"cornet/internal/plan/model"
)

// Policy names a planning backend choice. core.ResolvePolicy settles
// Threshold to one of the Force values before a request is built; the
// engine labels its request metric with the backend it ran.
type Policy string

const (
	// Threshold picks the model-driven solver up to the framework's
	// ScaleThreshold request elements and the Algorithm-1 heuristic beyond.
	Threshold Policy = "threshold"
	// ForceSolver pins the model-driven solver backend.
	ForceSolver Policy = "solver"
	// ForceHeuristic pins the Algorithm-1 heuristic backend.
	ForceHeuristic Policy = "heuristic"
)

// ParsePolicy maps the CLI spellings (auto, solver, heuristic) onto a
// Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "", "auto", "threshold":
		return Threshold, nil
	case "solver":
		return ForceSolver, nil
	case "heuristic":
		return ForceHeuristic, nil
	}
	return "", fmt.Errorf("engine: unknown policy %q (want auto|solver|heuristic)", s)
}

// ErrUnsupported is returned for a request that does not carry exactly
// one backend representation.
var ErrUnsupported = errors.New("engine: request must carry exactly one of a model and an instance")

// Request carries the one representation a planning request is solved
// from: Model (plus Expand to map schedules back to element ids) for the
// solver backend, or Instance for the heuristic backend.
type Request struct {
	// Model is the translated constraint model (solver backend).
	Model *model.Model
	// Expand maps a solved model schedule to element-id assignments and
	// leftovers.
	Expand func(model.Schedule) (assignment map[string]int, leftovers []string)
	// Instance is the Algorithm-1 representation (heuristic backend).
	Instance *heuristic.Instance
	// Size is the request's element count; the heuristic backend adds a
	// large-neighbourhood phase at 5,000 and above.
	Size int
}

// Result is a backend's schedule in uniform element-id terms.
type Result struct {
	Assignment map[string]int
	Leftovers  []string
	Conflicts  int
	Makespan   int
	// TimedOut reports a best-so-far schedule returned at the search
	// budget rather than a completed search.
	TimedOut bool
}

// Stats reports one backend's search effort in uniform terms.
type Stats struct {
	// Backend names the implementation ("solver" or "heuristic").
	Backend string
	// Wall is the backend's wall-clock solve time.
	Wall time.Duration
	// Nodes counts branch-and-bound nodes explored (model-driven backends).
	Nodes int64
	// Restarts is the local-search restart budget (heuristic backend).
	Restarts int
	// Workers is the search parallelism the backend actually used (0 when
	// the backend predates parallel search or did not report it).
	Workers int
	// NodesPerWorker is Nodes/Workers for model-driven backends — the mean
	// per-worker exploration effort (0 when Workers is unknown).
	NodesPerWorker int64
	// DomainPrunes counts start slots the solver removed from block
	// domains via capacity forward-checking (0 for backends without
	// domain propagation).
	DomainPrunes int64
	// Steals counts subtree tasks idle workers took from peers during a
	// work-stealing parallel solver search (0 when sequential or
	// heuristic).
	Steals int64
	// Splits counts search nodes the solver published as stealable
	// subtree descriptors.
	Splits int64
	// ReplayNodes counts prefix decisions thieves replayed to
	// reconstruct stolen subtrees — the search's load-balancing overhead.
	ReplayNodes int64
	// WarmStart reports that the backend's search was seeded with a
	// cached incumbent (Options.Solver.WarmSlots) instead of solving
	// cold.
	WarmStart bool
	// Objective is the backend's own objective value (model cost for the
	// solver backends, weighted total completion time for the heuristic).
	Objective int64
	Conflicts int
	TimedOut  bool
	// Winner marks the backend whose result the engine returned.
	Winner bool
}

// Options tune one engine request.
type Options struct {
	// Solver bounds the CP search of the model-driven backends.
	Solver SolverLimits
	// Parallelism is the per-backend search worker count: work-stealing
	// branch-and-bound workers for the model-driven backends, restart
	// pool size for the heuristic. 0 means GOMAXPROCS; 1 forces
	// sequential search. A non-zero Solver.Parallelism takes precedence
	// for the model-driven backends.
	Parallelism int

	// incumbent receives incumbent-improvement notifications from the
	// backends as alternating key/value pairs. Unexported: the engine sets
	// it per backend run to emit trace events and metrics.
	incumbent func(kv ...any)
	// steal receives work-stealing totals from parallel solver searches
	// (once per search; a split solve reports per component).
	// Unexported: the engine sets it per backend run to emit the
	// steal-rate trace event and update the solver steal metrics.
	steal func(steals, splits, replayNodes int64)
}

// Backend is one interchangeable planning implementation. Implementations
// must honour ctx cancellation promptly and should treat a ctx deadline as
// a soft budget, returning their best incumbent instead of failing where
// possible.
type Backend interface {
	Name() string
	Solve(ctx context.Context, req *Request, opt Options) (Result, Stats, error)
}

// Engine dispatches planning requests onto pluggable backends. A nil
// Engine, Solver or Heuristic plans with the default backend
// (SolverBackend, HeuristicBackend).
type Engine struct {
	// Solver is the model-driven backend.
	Solver Backend
	// Heuristic is the attribute-grouped backend.
	Heuristic Backend
}

// Plan solves one request on the backend whose representation it carries
// and returns that backend's result with its Stats, flagged Winner.
//
// When the context carries a trace (obs.StartTrace), Plan records a
// "plan.engine" span with one "plan.backend.<name>" child, including
// incumbent-improvement events. Request and per-backend metrics are
// always recorded in obs.Default.
func (e *Engine) Plan(ctx context.Context, req *Request, opt Options) (Result, []Stats, error) {
	if e == nil {
		e = &Engine{}
	}
	var policy Policy
	var b Backend
	switch {
	case req.Model != nil && req.Instance == nil:
		if policy, b = ForceSolver, e.Solver; b == nil {
			b = SolverBackend{}
		}
	case req.Instance != nil && req.Model == nil:
		if policy, b = ForceHeuristic, e.Heuristic; b == nil {
			b = HeuristicBackend{}
		}
	default:
		return Result{}, nil, ErrUnsupported
	}
	ctx, sp := obs.StartSpan(ctx, "plan.engine")
	sp.SetAttr("policy", string(policy))
	sp.SetAttr("size", req.Size)
	res, st, err := runBackend(ctx, b, req, opt)
	st.Winner = err == nil
	observePlan(sp, policy, st, err)
	return res, []Stats{st}, err
}
