// Package core wires CORNET's components into one framework facade: the
// building-block catalog, workflow designer and deployments, the Camunda-
// style orchestrator and dispatcher, the change schedule planner (intent ->
// model -> solver, with the heuristic at scale), and the change impact
// verifier. It is the API a network operations team programs against; the
// cmd/ binaries and examples/ are thin layers over it.
package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"time"

	"cornet/internal/catalog"
	"cornet/internal/inventory"
	"cornet/internal/obs"
	"cornet/internal/orchestrator"
	"cornet/internal/orchestrator/resilience"
	"cornet/internal/plan/engine"
	"cornet/internal/plan/heuristic"
	"cornet/internal/plan/intent"
	"cornet/internal/plan/model"
	"cornet/internal/plan/solver"
	"cornet/internal/plan/translate"
	"cornet/internal/topology"
	"cornet/internal/verify/groups"
	"cornet/internal/verify/kpi"
	"cornet/internal/verify/verifier"
	"cornet/internal/workflow"
)

// Framework is the assembled CORNET instance.
type Framework struct {
	Catalog  *catalog.Catalog
	Engine   *orchestrator.Engine
	Registry *kpi.Registry
	// ScaleThreshold is the instance count above which the default
	// Threshold policy switches from the generic model-driven solver to
	// the custom heuristic (Section 3.3.3; the paper's solvers handle
	// ~1,000). Per-request PlanOptions.Policy overrides it.
	ScaleThreshold int
	// SolverOptions bound the generic solver's search.
	SolverOptions solver.Options
	// SolveModel is a test seam: when set, RunPlan calls it in place of
	// solver.SolveContext to solve a built model.
	SolveModel func(context.Context, *model.Model, solver.Options) (model.Schedule, error)
}

// Option customizes framework construction.
type Option func(*Framework)

// WithInvoker sets the building-block invoker (testbed, HTTP, or fake).
func WithInvoker(inv orchestrator.Invoker) Option {
	return func(f *Framework) { f.Engine = orchestrator.NewEngine(inv) }
}

// WithExecutionDefaults sets the engine-wide block execution policy
// (per-attempt timeout, retry budget, backoff, failure action); task nodes
// overlay it with their own Policy. Must follow WithInvoker.
func WithExecutionDefaults(p resilience.Policy) Option {
	return func(f *Framework) {
		if f.Engine != nil {
			f.Engine.Defaults = p
		}
	}
}

// WithBreakers enables per-API circuit breakers on the orchestrator engine
// with the given configuration (zero value: defaults). Must follow
// WithInvoker.
func WithBreakers(cfg resilience.BreakerConfig) Option {
	return func(f *Framework) {
		if f.Engine != nil {
			f.Engine.EnableBreakers(cfg)
		}
	}
}

// WithSolverOptions overrides search limits.
func WithSolverOptions(o solver.Options) Option {
	return func(f *Framework) { f.SolverOptions = o }
}

// New assembles a framework with a seeded Table 2 catalog for the given
// NF types and a fresh KPI registry.
func New(nfTypes map[string]catalog.ImplKind, opts ...Option) *Framework {
	f := &Framework{
		Catalog:        catalog.New(),
		Registry:       kpi.NewRegistry(),
		ScaleThreshold: 1000,
	}
	catalog.Seed(f.Catalog, nfTypes)
	for _, o := range opts {
		o(f)
	}
	return f
}

// VerifyWorkflow verifies a design against the catalog (structure plus
// parameter flow) for a target NF type.
func (f *Framework) VerifyWorkflow(w *workflow.Workflow, nfType string) error {
	return w.Verify(func(block string) (workflow.BlockInfo, bool) {
		b, err := f.Catalog.Lookup(block, nfType)
		if err != nil {
			return workflow.BlockInfo{}, false
		}
		info := workflow.BlockInfo{}
		for _, p := range b.Inputs {
			info.Inputs = append(info.Inputs, workflow.ParamSpec{Name: p.Name, Required: p.Required})
		}
		for _, p := range b.Outputs {
			info.Outputs = append(info.Outputs, workflow.ParamSpec{Name: p.Name, Required: p.Required})
		}
		return info, true
	})
}

// DeployWorkflow verifies and deploys a workflow for an NF type,
// generating the deployment artifact (the WAR equivalent).
func (f *Framework) DeployWorkflow(w *workflow.Workflow, nfType string) (*workflow.Deployment, error) {
	if err := f.VerifyWorkflow(w, nfType); err != nil {
		return nil, err
	}
	return workflow.Deploy(w, nfType, func(block, nf string) (string, error) {
		b, err := f.Catalog.Lookup(block, nf)
		if err != nil {
			return "", err
		}
		return b.APILocation, nil
	})
}

// Execute runs a deployed workflow against one instance.
func (f *Framework) Execute(ctx context.Context, dep *workflow.Deployment, inputs map[string]string) (*orchestrator.Execution, error) {
	if f.Engine == nil {
		return nil, fmt.Errorf("core: no invoker configured (use WithInvoker)")
	}
	return f.Engine.Execute(ctx, dep, inputs)
}

// Dispatch runs scheduled changes through the dispatcher with bounded
// concurrency.
func (f *Framework) Dispatch(ctx context.Context, dep *workflow.Deployment,
	changes []orchestrator.ScheduledChange, concurrency int) ([]orchestrator.Result, error) {
	if f.Engine == nil {
		return nil, fmt.Errorf("core: no invoker configured (use WithInvoker)")
	}
	d := orchestrator.NewDispatcher(f.Engine, concurrency)
	return d.Run(ctx, func(orchestrator.ScheduledChange) (*workflow.Deployment, error) {
		return dep, nil
	}, changes), nil
}

// PlanResult is the schedule planner's output.
type PlanResult struct {
	// Assignment maps element ids to timeslot indexes; Leftovers did not
	// fit the window.
	Assignment map[string]int
	Leftovers  []string
	Slots      []intent.Timeslot
	Conflicts  int
	Makespan   int
	// Method records which backend produced the plan ("solver" or
	// "heuristic").
	Method string
	// Discovery is the schedule discovery time.
	Discovery time.Duration
	// TimedOut reports a best-so-far schedule returned at the search
	// budget rather than a completed search.
	TimedOut bool
	// Stats holds the one backend run's search statistics (flagged
	// Winner).
	Stats []engine.Stats
	// ModelText is the rendered constraint model (solver path only).
	ModelText string
}

// PlanOptions tune one planning request.
type PlanOptions struct {
	Topology *topology.Graph
	// RequireAll forbids leftovers (solver path).
	RequireAll bool
	// Policy selects the planning backend per request: engine.Threshold
	// (default), engine.ForceSolver or engine.ForceHeuristic.
	Policy engine.Policy
	// RenderModel includes the MiniZinc-style model text in the result.
	RenderModel bool
	// Seed makes the heuristic's permutations reproducible.
	Seed int64
	// Parallelism is the per-backend search worker count (branch-and-bound
	// root workers for the solver, restart pool size for the heuristic).
	// 0 means GOMAXPROCS; 1 forces sequential search.
	Parallelism int
	// Warm seeds the solver with a known schedule from a previous solve of
	// a similar model (item ID -> slot, -1 for leftover): warm-start
	// re-planning. Ignored by the heuristic backend; an infeasible seed is
	// ignored by the solver.
	Warm map[string]int
}

// PlanScheduleContext runs the full planning pipeline: parse intent, build
// the representation the resolved policy's backend needs, and solve on
// that backend. A ctx deadline becomes the backend's soft search budget (best
// incumbent returned, PlanResult.TimedOut set); cancelling ctx aborts the
// search with an error.
func (f *Framework) PlanScheduleContext(ctx context.Context, intentJSON []byte, inv *inventory.Inventory, opt PlanOptions) (*PlanResult, error) {
	req, err := intent.Parse(intentJSON)
	if err != nil {
		return nil, err
	}
	return f.PlanScheduleRequestContext(ctx, req, inv, opt)
}

// ResolvePolicy is the planner's one backend choice: it settles the
// Threshold policy (the default) to the solver up to ScaleThreshold
// elements and the heuristic beyond, and passes a forced policy through.
// BuildPlanRequest builds only the representation of the backend it
// names, and RunPlan runs that backend: translating a 100K-node
// inventory into a constraint model just to discard it would dominate
// discovery time. It is everything BuildPlanRequest reads of the policy
// field, the inventory size and ScaleThreshold, which is why the serving
// layer's request key carries its result in their place.
func (f *Framework) ResolvePolicy(opt PlanOptions, size int) engine.Policy {
	if opt.Policy != "" && opt.Policy != engine.Threshold {
		return opt.Policy
	}
	if size > f.ScaleThreshold {
		return engine.ForceHeuristic
	}
	return engine.ForceSolver
}

// ErrUnsupported is wrapped by the error BuildPlanRequest returns when the
// heuristic is asked to plan an intent it cannot express. Algorithm 1
// reads a global cap, an EMS cap and the conflict table, and hard-wires
// USID consistency, per-timezone grouping and the market walk; it refuses
// anything else rather than answer while dropping it.
var ErrUnsupported = errors.New("the heuristic cannot express")

// PlanRequest carries the one representation a built request is solved
// from: the constraint model for the solver, or the Algorithm-1 instance
// for the heuristic.
type PlanRequest struct {
	Model    *model.Model
	Instance *heuristic.Instance
}

// PlanBuild bundles the backend representation of one planning request,
// the resolved policy, and the translation artifacts needed to interpret a
// solution. Splitting construction (BuildPlanRequest) from solving
// (RunPlan) lets the serving layer (internal/plan/serve) fingerprint the
// translated model for its plan cache before committing to a solve.
type PlanBuild struct {
	// Req carries the built representation.
	Req PlanRequest
	// Policy is the resolved per-request policy, naming the backend whose
	// representation Req carries.
	Policy engine.Policy
	// Translation is the intent-to-model translation result (nil on the
	// heuristic path).
	Translation *translate.Result
	// Slots are the resolved timeslots backing slot indexes.
	Slots []intent.Timeslot
	// size is the request's element count.
	size int
}

// BuildPlanRequest resolves the policy and constructs the one
// representation its backend needs: the translated constraint model for
// the solver, the Algorithm-1 instance for the heuristic. An intent the
// heuristic cannot express is an ErrUnsupported error when the heuristic
// was forced, and takes the solver under Threshold, whatever its size.
// The result feeds RunPlan, possibly after the serving layer consulted its
// plan cache using the model's fingerprint.
func (f *Framework) BuildPlanRequest(ctx context.Context, req *intent.Request, inv *inventory.Inventory, opt PlanOptions) (*PlanBuild, error) {
	b := &PlanBuild{Policy: f.ResolvePolicy(opt, inv.Len()), size: inv.Len()}
	switch b.Policy {
	case engine.ForceHeuristic:
		inst, slots, err := heuristicInstance(req, inv, opt)
		if err == nil {
			b.Req.Instance, b.Slots = inst, slots
			return b, nil
		}
		if !errors.Is(err, ErrUnsupported) || opt.Policy == engine.ForceHeuristic {
			return nil, err
		}
		b.Policy = engine.ForceSolver
	case engine.ForceSolver:
	default:
		return nil, fmt.Errorf("core: unknown planning policy %q", b.Policy)
	}
	_, tsp := obs.StartSpan(ctx, "plan.translate")
	tr, err := translate.Translate(req, inv, translate.Options{
		RequireAll: opt.RequireAll,
		Topology:   opt.Topology,
	})
	if err != nil {
		tsp.Fail(err)
		tsp.End()
		return nil, err
	}
	tsp.SetAttr("items", len(tr.Model.Items))
	tsp.SetAttr("slots", tr.Model.NumSlots)
	tsp.End()
	b.Translation, b.Req.Model, b.Slots = tr, tr.Model, tr.Slots
	return b, nil
}

// RunPlan solves a built request on the backend whose representation it
// carries — the CP solver for a model, Algorithm 1 for an instance — under
// one "plan.solve" span, and assembles the PlanResult. opt.Warm (when set)
// seeds the solver with the cached incumbent; opt.RenderModel includes the
// model listing.
func (f *Framework) RunPlan(ctx context.Context, b *PlanBuild, opt PlanOptions) (*PlanResult, error) {
	start := time.Now()
	var out *PlanResult
	var st engine.Stats
	var err error
	if b.Req.Model != nil {
		ctx, r := startPlanRun(ctx, "solver", b.size)
		out, st, err = f.solveModel(ctx, b, opt, r)
		r.end(st, err)
	} else {
		ctx, r := startPlanRun(ctx, "heuristic", b.size)
		out, st, err = solveInstance(ctx, b, r)
		r.end(st, err)
	}
	if err != nil {
		return nil, err
	}
	st.Winner = true
	out.Slots = b.Slots
	out.Method = st.Backend
	out.Stats = []engine.Stats{st}
	out.Discovery = time.Since(start)
	if opt.RenderModel && b.Translation != nil {
		out.ModelText = b.Translation.Model.Render()
	}
	return out, nil
}

// PlanScheduleRequestContext is PlanScheduleContext for a pre-parsed
// request.
func (f *Framework) PlanScheduleRequestContext(ctx context.Context, req *intent.Request, inv *inventory.Inventory, opt PlanOptions) (*PlanResult, error) {
	start := time.Now()
	b, err := f.BuildPlanRequest(ctx, req, inv, opt)
	if err != nil {
		return nil, err
	}
	out, err := f.RunPlan(ctx, b, opt)
	if err != nil {
		return nil, err
	}
	out.Discovery = time.Since(start)
	return out, nil
}

// heuristicInstance maps the intent onto the Appendix C heuristic: slot
// count from the scheduling window, global capacity from the tightest
// per-element concurrency cap, EMS capacity from the tightest cap
// aggregated on the EMS attribute, conflicts from the conflict table, and
// the default restart budget, with a large-neighbourhood phase of as many
// restarts from 5,000 elements on. An intent stating anything else is an
// ErrUnsupported error (see heuristicRefusal).
func heuristicInstance(req *intent.Request, inv *inventory.Inventory, opt PlanOptions) (*heuristic.Instance, []intent.Timeslot, error) {
	if err := heuristicRefusal(req, inv); err != nil {
		return nil, nil, err
	}
	slots, err := req.Timeslots()
	if err != nil {
		return nil, nil, err
	}
	slotCap, emsCap := 0, 0
	for _, c := range req.ByName(intent.Concurrency) {
		capacity := &slotCap
		if c.AggregateAttribute == inventory.AttrEMS {
			capacity = &emsCap
		}
		if *capacity == 0 || c.DefaultCapacity < *capacity {
			*capacity = c.DefaultCapacity
		}
	}
	if slotCap <= 0 {
		// No global cap given: size so the fleet fits the window.
		slotCap = inv.Len()/len(slots) + 1
	}
	slotConflicts, err := req.SlotConflicts(slots)
	if err != nil {
		return nil, nil, err
	}
	inst := &heuristic.Instance{
		Inv:          inv,
		MaxTimeslots: len(slots),
		SlotCapacity: slotCap,
		EMSCapacity:  emsCap,
		Conflicts:    slotConflicts,
		Restarts:     heuristic.DefaultRestarts,
		Seed:         opt.Seed,
		Parallelism:  opt.Parallelism,
	}
	if inv.Len() >= 5000 {
		// Large instances benefit from re-searching the best permutation's
		// neighborhoods; match the restart count.
		inst.LNSRestarts = inst.Restarts
	}
	return inst, slots, nil
}

// heuristicRefusal names the first part of the intent that Algorithm 1
// would drop, wrapped in ErrUnsupported, or returns nil when it honours
// all of it: per-element (common_id) scheduling of single-window changes,
// no frozen elements, a conflict table keyed by element whose conflicts
// are to be minimized, concurrency caps per slot on elements overall or
// per EMS, consistency on usid, uniformity on timezone and localize on
// market.
func heuristicRefusal(req *intent.Request, inv *inventory.Inventory) error {
	refuse := func(format string, args ...any) error {
		return fmt.Errorf("core: %w %s", ErrUnsupported, fmt.Sprintf(format, args...))
	}
	slotDur, err := req.SchedulingWindow.Granularity.Duration()
	if err != nil {
		return err
	}
	for i, c := range req.Constraints {
		var ok bool
		what := string(c.Name)
		switch c.Name {
		case intent.ConflictHandling:
			ok = true
		case intent.Concurrency:
			what += " on " + c.BaseAttribute
			if c.AggregateAttribute != "" {
				what += " per " + c.AggregateAttribute
			}
			if d, err := c.Granularity.Duration(); c.Granularity.Metric != "" && (err != nil || d != slotDur) {
				what += fmt.Sprintf(" every %d %s", max(c.Granularity.Value, 1), c.Granularity.Metric)
				break
			}
			ok = c.BaseAttribute == inventory.AttrCommonID &&
				(c.AggregateAttribute == "" || c.AggregateAttribute == inventory.AttrEMS)
		case intent.Consistency:
			what += " on " + c.Attribute
			ok = c.Attribute == inventory.AttrUSID || c.Attribute == inventory.AttrCommonID
		case intent.Uniformity:
			what += " on " + c.Attribute
			ok = c.Attribute == inventory.AttrTimezone
		case intent.Localize:
			what += " on " + c.Attribute
			ok = c.Attribute == inventory.AttrMarket
		}
		if !ok {
			return refuse("constraint %d (%s)", i, what)
		}
	}
	switch {
	case req.SchedulableAttribute != inventory.AttrCommonID:
		return refuse("schedulable_attribute %q", req.SchedulableAttribute)
	case len(req.ConflictTable) > 0 && req.ConflictAttribute != inventory.AttrCommonID:
		return refuse("conflict_attribute %q", req.ConflictAttribute)
	case len(req.ConflictTable) > 0 && !req.MinimizeConflicts():
		// Algorithm 1 minimizes conflicts; it cannot forbid them.
		return refuse("zero-conflicts handling of the conflict_table")
	case len(req.FrozenElements) > 0:
		return refuse("frozen_elements")
	case req.ChangeDuration > 1:
		return refuse("change_duration %d", req.ChangeDuration)
	}
	for _, d := range inv.AttrValues(inventory.AttrDuration) {
		if n, err := strconv.Atoi(d); err == nil && n > 1 {
			return refuse("elements with %s %s", inventory.AttrDuration, d)
		}
	}
	return nil
}

// ControlGroup derives a control group for impact verification.
func (f *Framework) ControlGroup(topo *topology.Graph, inv *inventory.Inventory,
	study []string, criterion groups.Criterion, opt groups.Options) ([]string, error) {
	sel := &groups.Selector{Topo: topo, Inv: inv}
	return sel.Control(study, criterion, opt)
}

// VerifyImpactContext runs the impact verifier over a data source;
// cancelling ctx stops the KPI evaluation worker pool.
func (f *Framework) VerifyImpactContext(ctx context.Context, data verifier.DataSource, inv *inventory.Inventory,
	rule verifier.Rule, study []string, changeAt map[string]int, control []string) (*verifier.Report, error) {
	v := &verifier.Verifier{Registry: f.Registry, Data: data, Inv: inv}
	return v.VerifyContext(ctx, rule, study, changeAt, control)
}

// CheckScheduleContext validates a manually-proposed schedule against a
// request's constraints without discovering a new one — the intermediate
// adoption step of Section 5.3: operators guessed a schedule by hand and
// CORNET automated the conflict checking until they trusted full
// discovery. assignment maps element ids to timeslot indexes (elements
// absent from the map are treated as unscheduled). Returns the
// human-readable violation list (empty = the manual schedule conforms).
func (f *Framework) CheckScheduleContext(ctx context.Context, req *intent.Request, inv *inventory.Inventory,
	assignment map[string]int, opt PlanOptions) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: check schedule: %w", err)
	}
	tr, err := translate.Translate(req, inv, translate.Options{
		Topology: opt.Topology,
	})
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: check schedule: %w", err)
	}
	slots := make([]int, len(tr.Model.Items))
	for i := range slots {
		slots[i] = -1
	}
	index := map[string]int{}
	for idx, ids := range tr.ItemElements {
		for _, id := range ids {
			index[id] = idx
		}
	}
	conflicting := map[int]map[int]bool{} // item -> proposed slots
	for id, slot := range assignment {
		idx, ok := index[id]
		if !ok {
			return nil, fmt.Errorf("core: assignment references unknown element %q", id)
		}
		if slot < 0 || slot >= tr.Model.NumSlots {
			return nil, fmt.Errorf("core: element %q assigned to slot %d outside the %d-slot window",
				id, slot, tr.Model.NumSlots)
		}
		if conflicting[idx] == nil {
			conflicting[idx] = map[int]bool{}
		}
		conflicting[idx][slot] = true
	}
	var problems []string
	for idx, set := range conflicting {
		if len(set) > 1 {
			problems = append(problems,
				fmt.Sprintf("elements of schedulable unit %q assigned to %d different slots",
					tr.Model.Items[idx].ID, len(set)))
			continue
		}
		for s := range set {
			slots[idx] = s
		}
	}
	for _, v := range tr.Model.Check(slots) {
		problems = append(problems, fmt.Sprintf("%s: %s", v.Kind, v.Detail))
	}
	sort.Strings(problems)
	return problems, nil
}
