// Package core wires CORNET's components into one framework facade: the
// building-block catalog, workflow designer and deployments, the Camunda-
// style orchestrator and dispatcher, the change schedule planner (intent ->
// model -> solver, with heuristic fallback at scale), and the change impact
// verifier. It is the API a network operations team programs against; the
// cmd/ binaries and examples/ are thin layers over it.
package core

import (
	"context"
	"fmt"
	"sort"
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
	// Planner dispatches schedule planning onto pluggable backends; nil
	// means the default engine (decomposed solver + Algorithm 1 heuristic).
	Planner *engine.Engine
	// ScaleThreshold is the instance count above which the default
	// Threshold policy switches from the generic model-driven solver to
	// the custom heuristic (Section 3.3.3; the paper's solvers handle
	// ~1,000). Per-request PlanOptions.Policy overrides it.
	ScaleThreshold int
	// SolverOptions bound the generic solver's search.
	SolverOptions solver.Options
	// HeuristicRestarts configures the Algorithm 1 local search.
	HeuristicRestarts int
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

// WithScaleThreshold overrides the solver/heuristic switch point.
func WithScaleThreshold(n int) Option {
	return func(f *Framework) { f.ScaleThreshold = n }
}

// WithSolverOptions overrides search limits.
func WithSolverOptions(o solver.Options) Option {
	return func(f *Framework) { f.SolverOptions = o }
}

// New assembles a framework with a seeded Table 2 catalog for the given
// NF types and a fresh KPI registry.
func New(nfTypes map[string]catalog.ImplKind, opts ...Option) *Framework {
	f := &Framework{
		Catalog:           catalog.New(),
		Registry:          kpi.NewRegistry(),
		Planner:           engine.New(),
		ScaleThreshold:    1000,
		HeuristicRestarts: 8,
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
	// Stats holds one entry per backend consulted (the winner flagged);
	// portfolio planning lists the cancelled losers too.
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
	// (default), engine.ForceSolver, engine.ForceHeuristic, or
	// engine.Portfolio (race both, cancel the loser).
	Policy engine.Policy
	// RenderModel includes the MiniZinc-style model text in the result.
	RenderModel bool
	// HeuristicSlotCapacity / EMSCapacity configure the heuristic path
	// when the intent's concurrency constraints cannot be mapped 1:1.
	HeuristicSlotCapacity int
	HeuristicEMSCapacity  int
	Seed                  int64
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
// the backend representations the policy needs, and solve on the planning
// engine. A ctx deadline becomes the backends' soft search budget (best
// incumbent returned, PlanResult.TimedOut set); cancelling ctx aborts the
// search with an error.
func (f *Framework) PlanScheduleContext(ctx context.Context, intentJSON []byte, inv *inventory.Inventory, opt PlanOptions) (*PlanResult, error) {
	req, err := intent.Parse(intentJSON)
	if err != nil {
		return nil, err
	}
	return f.PlanScheduleRequestContext(ctx, req, inv, opt)
}

// planner returns the configured planning engine, defaulting lazily so a
// zero-value Framework still plans.
func (f *Framework) planner() *engine.Engine {
	if f.Planner != nil {
		return f.Planner
	}
	return engine.New()
}

// ResolvePolicy settles the Threshold choice (the default policy) up
// front, so representation construction below can skip the side the policy
// will not run: translating a 100K-node inventory into a constraint model
// just to discard it would dominate discovery time. It is everything
// BuildPlanRequest reads of the policy field, the inventory size and
// ScaleThreshold, which is why the serving layer's request key carries its
// result in their place.
func (f *Framework) ResolvePolicy(opt PlanOptions, size int) engine.Policy {
	if opt.Policy != "" && opt.Policy != engine.Threshold {
		return opt.Policy
	}
	if size > f.ScaleThreshold {
		return engine.ForceHeuristic
	}
	return engine.ForceSolver
}

// PlanBuild bundles the backend representations of one planning request:
// the engine request (constraint model and/or heuristic instance), the
// resolved policy, and the translation artifacts needed to interpret a
// solution. Splitting construction (BuildPlanRequest) from solving
// (RunPlan) lets the serving layer (internal/plan/serve) fingerprint the
// translated model for its plan cache before committing to a solve.
type PlanBuild struct {
	// Req is the engine request carrying the built representations.
	Req *engine.Request
	// Policy is the resolved per-request policy (Threshold already
	// settled to a concrete backend).
	Policy engine.Policy
	// Translation is the intent-to-model translation result (nil when the
	// policy needs no constraint model).
	Translation *translate.Result
	// Slots are the resolved timeslots backing slot indexes.
	Slots []intent.Timeslot
}

// BuildPlanRequest resolves the policy and constructs the backend
// representations it needs: the translated constraint model for the
// solver/portfolio paths, the Algorithm-1 instance for the heuristic/
// portfolio paths. The result feeds RunPlan, possibly after the serving
// layer consulted its plan cache using the model's fingerprint.
func (f *Framework) BuildPlanRequest(ctx context.Context, req *intent.Request, inv *inventory.Inventory, opt PlanOptions) (*PlanBuild, error) {
	policy := f.ResolvePolicy(opt, inv.Len())
	b := &PlanBuild{Req: &engine.Request{Size: inv.Len()}, Policy: policy}
	if policy == engine.ForceSolver || policy == engine.Portfolio {
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
		b.Translation = tr
		b.Req.Model = tr.Model
		b.Req.Expand = func(s model.Schedule) (map[string]int, []string) {
			a := tr.Expand(s)
			assignment := make(map[string]int)
			for slot, ids := range a.BySlot {
				for _, id := range ids {
					assignment[id] = slot
				}
			}
			return assignment, a.Leftovers
		}
		b.Slots = tr.Slots
	}
	if policy == engine.ForceHeuristic || policy == engine.Portfolio {
		inst, instSlots, err := f.heuristicInstance(req, inv, opt)
		if err != nil {
			return nil, err
		}
		b.Req.Instance = inst
		if b.Slots == nil {
			b.Slots = instSlots
		}
	}
	return b, nil
}

// RunPlan solves a built request on the planning engine and assembles the
// PlanResult. opt.Warm (when set) seeds the solver backends with the
// cached incumbent; opt.RenderModel includes the model listing.
func (f *Framework) RunPlan(ctx context.Context, b *PlanBuild, opt PlanOptions) (*PlanResult, error) {
	start := time.Now()
	sopt := f.SolverOptions
	if len(opt.Warm) > 0 {
		sopt.WarmSlots = opt.Warm
	}
	res, stats, err := f.planner().Plan(ctx, b.Req, engine.Options{
		Policy:         b.Policy,
		ScaleThreshold: f.ScaleThreshold,
		Solver:         sopt,
		Parallelism:    opt.Parallelism,
	})
	if err != nil {
		return nil, err
	}
	out := &PlanResult{
		Assignment: res.Assignment,
		Leftovers:  res.Leftovers,
		Slots:      b.Slots,
		Conflicts:  res.Conflicts,
		Makespan:   res.Makespan,
		Discovery:  time.Since(start),
		TimedOut:   res.TimedOut,
		Stats:      stats,
	}
	for _, st := range stats {
		if st.Winner {
			out.Method = st.Backend
		}
	}
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
// count from the scheduling window, global capacity from the first
// ESA-level concurrency constraint, EMS capacity from a concurrency
// constraint aggregated on the EMS attribute, conflicts from the conflict
// table.
func (f *Framework) heuristicInstance(req *intent.Request, inv *inventory.Inventory, opt PlanOptions) (*heuristic.Instance, []intent.Timeslot, error) {
	slots, err := req.Timeslots()
	if err != nil {
		return nil, nil, err
	}
	slotCap := opt.HeuristicSlotCapacity
	emsCap := opt.HeuristicEMSCapacity
	for _, c := range req.ByName(intent.Concurrency) {
		switch {
		case c.BaseAttribute == req.SchedulableAttribute && c.AggregateAttribute == "":
			if slotCap == 0 {
				slotCap = c.DefaultCapacity
			}
		case c.AggregateAttribute == inventory.AttrEMS || c.BaseAttribute == inventory.AttrEMS:
			if emsCap == 0 {
				emsCap = c.DefaultCapacity
			}
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
	return &heuristic.Instance{
		Inv:          inv,
		MaxTimeslots: len(slots),
		SlotCapacity: slotCap,
		EMSCapacity:  emsCap,
		Conflicts:    slotConflicts,
		Restarts:     f.HeuristicRestarts,
		Seed:         opt.Seed,
		Parallelism:  opt.Parallelism,
	}, slots, nil
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

// ParseIntent parses a Listing 1 scheduling-intent document; exposed so
// framework users need not import the internal intent package directly.
func ParseIntent(doc []byte) (*intent.Request, error) {
	return intent.Parse(doc)
}
