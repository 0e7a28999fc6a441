// Package engine unifies CORNET's schedule-planning backends behind one
// pluggable interface with per-request policy, deadlines, and uniform
// search statistics.
//
// The paper's planner (Section 3.3) alternates between a generic
// constraint solver and the Appendix-C heuristic; the seed reproduction
// hard-wired that choice behind a static scale threshold inside the core
// facade. The engine turns the choice into a policy selectable per
// request:
//
//   - Threshold: solver below Options.ScaleThreshold items, heuristic
//     above — the paper's operating point, now tunable per request.
//   - ForceSolver / ForceHeuristic: pin one backend.
//   - Portfolio: race every backend the request supports concurrently on
//     the same request, return the first feasible result (upgraded to a
//     strictly better one if a second finisher beat it to the wire), and
//     cancel the losers via context.
//
// Every backend reports uniform Stats (nodes explored, restarts, wall
// time, objective, winner flag), which the cmd/ binaries surface.
package engine

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"cornet/internal/obs"
	"cornet/internal/plan/heuristic"
	"cornet/internal/plan/model"
)

// Policy selects how the engine picks a backend for a request.
type Policy string

const (
	// Threshold picks the model-driven solver up to Options.ScaleThreshold
	// request elements and the Algorithm-1 heuristic beyond.
	Threshold Policy = "threshold"
	// Portfolio races every backend the request supports and cancels the
	// losers once a feasible schedule is in hand.
	Portfolio Policy = "portfolio"
	// ForceSolver pins the model-driven solver backend.
	ForceSolver Policy = "solver"
	// ForceHeuristic pins the Algorithm-1 heuristic backend.
	ForceHeuristic Policy = "heuristic"
)

// ParsePolicy maps the CLI spellings (auto, solver, heuristic, portfolio)
// onto a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "", "auto", "threshold":
		return Threshold, nil
	case "solver":
		return ForceSolver, nil
	case "heuristic":
		return ForceHeuristic, nil
	case "portfolio":
		return Portfolio, nil
	}
	return "", fmt.Errorf("engine: unknown policy %q (want auto|solver|heuristic|portfolio)", s)
}

// ErrUnsupported is returned when a request lacks the representation a
// backend (or any backend, for the engine) needs.
var ErrUnsupported = errors.New("engine: request lacks a representation the backend can solve")

// Request carries the representations one planning request can be solved
// from. Model-driven backends need Model (plus Expand to map schedules
// back to element ids); the heuristic backend needs Instance. A request
// carrying both can be raced in portfolio mode.
type Request struct {
	// Model is the translated constraint model (model-driven backends).
	Model *model.Model
	// Expand maps a solved model schedule to element-id assignments and
	// leftovers. When nil, model item IDs are used as element ids directly.
	Expand func(model.Schedule) (assignment map[string]int, leftovers []string)
	// Instance is the Algorithm-1 representation (heuristic backend).
	Instance *heuristic.Instance
	// Size is the request's element count, driving the Threshold policy.
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
	// Schedule is the raw model schedule (model-driven backends only).
	Schedule *model.Schedule
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
	// Err records why a backend produced no result; a cancelled portfolio
	// loser records the context error here.
	Err string
}

// Options tune one engine request.
type Options struct {
	// Policy selects the backend (default Threshold).
	Policy Policy
	// ScaleThreshold is the Threshold policy switch point (default 1000,
	// the paper's solver practicality limit).
	ScaleThreshold int
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
	// (once per search; a decomposed solve reports per component).
	// Unexported: the engine sets it per backend run to emit the
	// steal-rate trace event and update the solver steal metrics.
	steal func(steals, splits, replayNodes int64)
}

// Backend is one interchangeable planning implementation. Implementations
// must honour ctx cancellation promptly (the portfolio mode relies on it
// to kill losers) and should treat a ctx deadline as a soft budget,
// returning their best incumbent instead of failing where possible.
type Backend interface {
	Name() string
	// Supports reports whether the request carries this backend's
	// representation.
	Supports(req *Request) bool
	Solve(ctx context.Context, req *Request, opt Options) (Result, Stats, error)
}

// Engine dispatches planning requests onto pluggable backends.
type Engine struct {
	// Solver is the model-driven backend (default: DecomposedBackend).
	Solver Backend
	// Heuristic is the attribute-grouped backend (default:
	// HeuristicBackend).
	Heuristic Backend
}

// New assembles the default engine: the decomposed CP solver and the
// Algorithm-1 heuristic.
func New() *Engine {
	return &Engine{Solver: DecomposedBackend{}, Heuristic: HeuristicBackend{}}
}

func (e *Engine) backends() (solverB, heurB Backend) {
	solverB, heurB = e.Solver, e.Heuristic
	if solverB == nil {
		solverB = DecomposedBackend{}
	}
	if heurB == nil {
		heurB = HeuristicBackend{}
	}
	return solverB, heurB
}

// Plan solves one request under the options' policy. It returns the
// winning backend's result plus one Stats entry per backend consulted
// (the winner flagged); the portfolio path waits for cancelled losers to
// exit so their stats — including the observed context error — are
// complete when Plan returns.
//
// When the context carries a trace (obs.StartTrace), Plan records a
// "plan.engine" span with one "plan.backend.<name>" child per backend
// consulted, including incumbent-improvement events and portfolio
// winner/loser-cancellation outcomes. Request and per-backend metrics are
// always recorded in obs.Default.
func (e *Engine) Plan(ctx context.Context, req *Request, opt Options) (Result, []Stats, error) {
	if opt.ScaleThreshold <= 0 {
		opt.ScaleThreshold = 1000
	}
	policy := opt.Policy
	if policy == "" {
		policy = Threshold
	}
	ctx, sp := obs.StartSpan(ctx, "plan.engine")
	sp.SetAttr("policy", string(policy))
	sp.SetAttr("size", req.Size)
	res, stats, err := e.dispatch(ctx, req, opt, policy)
	observePlan(sp, policy, stats, err)
	return res, stats, err
}

func (e *Engine) dispatch(ctx context.Context, req *Request, opt Options, policy Policy) (Result, []Stats, error) {
	solverB, heurB := e.backends()
	switch policy {
	case ForceSolver:
		return runOne(ctx, solverB, req, opt)
	case ForceHeuristic:
		return runOne(ctx, heurB, req, opt)
	case Threshold:
		pick, other := solverB, heurB
		if req.Size > opt.ScaleThreshold {
			pick, other = heurB, solverB
		}
		if !pick.Supports(req) && other.Supports(req) {
			pick = other
		}
		return runOne(ctx, pick, req, opt)
	case Portfolio:
		return e.race(ctx, []Backend{solverB, heurB}, req, opt)
	default:
		return Result{}, nil, fmt.Errorf("engine: unknown policy %q", policy)
	}
}

func runOne(ctx context.Context, b Backend, req *Request, opt Options) (Result, []Stats, error) {
	if !b.Supports(req) {
		return Result{}, nil, fmt.Errorf("engine: backend %s: %w", b.Name(), ErrUnsupported)
	}
	res, st, err := runBackend(ctx, b, req, opt)
	if err != nil {
		metricBackendRuns.With(b.Name(), "error").Inc()
		return Result{}, []Stats{st}, err
	}
	st.Winner = true
	metricBackendRuns.With(b.Name(), "win").Inc()
	return res, []Stats{st}, nil
}

// race runs every supported backend concurrently on the same request. The
// first feasible result cancels the rest; late finishers that nonetheless
// produced a strictly better schedule before observing the cancellation
// replace the provisional winner.
func (e *Engine) race(ctx context.Context, backends []Backend, req *Request, opt Options) (Result, []Stats, error) {
	var avail []Backend
	for _, b := range backends {
		if b.Supports(req) {
			avail = append(avail, b)
		}
	}
	if len(avail) == 0 {
		return Result{}, nil, fmt.Errorf("engine: portfolio: %w", ErrUnsupported)
	}
	if len(avail) == 1 {
		return runOne(ctx, avail[0], req, opt)
	}
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	esp := obs.FromContext(ctx) // the "plan.engine" span (nil off-trace)
	type outcome struct {
		i   int
		res Result
		err error
	}
	ch := make(chan outcome, len(avail))
	stats := make([]Stats, len(avail))
	errs := make([]error, len(avail))
	for i, b := range avail {
		go func(i int, b Backend) {
			res, st, err := runBackend(rctx, b, req, opt)
			stats[i] = st // each goroutine owns its slot; read after the join below
			ch <- outcome{i: i, res: res, err: err}
		}(i, b)
	}
	winner := -1
	var winRes Result
	var firstErr error
	// Join ALL backends: the first success cancels the rest, and waiting
	// for the cancelled losers to exit both bounds goroutine lifetime and
	// makes their observed ctx error visible in the returned stats.
	for n := 0; n < len(avail); n++ {
		o := <-ch
		errs[o.i] = o.err
		switch {
		case o.err == nil && winner < 0:
			winner, winRes = o.i, o.res
			esp.Event("portfolio-first-result", "backend", avail[o.i].Name())
			cancel()
		case o.err == nil && betterResult(o.res, winRes):
			winner, winRes = o.i, o.res
			esp.Event("portfolio-late-upgrade", "backend", avail[o.i].Name())
		case o.err != nil && firstErr == nil && !errors.Is(o.err, context.Canceled):
			firstErr = o.err
		}
	}
	for i := range stats {
		out := raceOutcome(i, winner, errs[i])
		metricBackendRuns.With(avail[i].Name(), out).Inc()
		if out == "cancelled" {
			esp.Event("portfolio-loser-cancelled", "backend", avail[i].Name())
		}
	}
	if winner < 0 {
		if firstErr == nil {
			firstErr = ctx.Err()
		}
		return Result{}, stats, fmt.Errorf("engine: portfolio: all backends failed: %w", firstErr)
	}
	stats[winner].Winner = true
	return winRes, stats, nil
}

// betterResult orders schedules by the lexicographic objective shared by
// both backend families: fewer leftovers, then fewer conflicts, then a
// shorter makespan. Strict comparison, so the first finisher keeps ties.
func betterResult(a, b Result) bool {
	if len(a.Leftovers) != len(b.Leftovers) {
		return len(a.Leftovers) < len(b.Leftovers)
	}
	if a.Conflicts != b.Conflicts {
		return a.Conflicts < b.Conflicts
	}
	return a.Makespan < b.Makespan
}

// itemAssignment maps a model schedule onto element ids when the request
// has no Expand hook: item IDs double as element ids.
func itemAssignment(m *model.Model, sched model.Schedule) (map[string]int, []string) {
	assignment := make(map[string]int, len(sched.Slots))
	var leftovers []string
	for i, t := range sched.Slots {
		if t < 0 {
			leftovers = append(leftovers, m.Items[i].ID)
			continue
		}
		assignment[m.Items[i].ID] = t
	}
	sort.Strings(leftovers)
	return assignment, leftovers
}
