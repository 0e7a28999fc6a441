// Package reconcile is the declarative layer over CORNET's imperative
// pipeline: operators declare desired fleet state ("every vGW in market-7
// runs software >= v2 with mtu=9000") instead of submitting one-shot
// change requests, and a reconciliation controller continuously drives the
// network toward the declaration.
//
// Each pass diffs the declared spec against the live inventory, plans the
// drifted elements through the schedule planner (internal/plan/engine),
// executes the generated change workflows through the orchestrator's
// resilience layer, records an audit revision per change in the changelog
// journal, and updates the fleet's status conditions and observed
// generation. Failed passes requeue with the controller runtime's
// per-fleet exponential backoff, so transient testbed faults heal without
// operator involvement — the change-management analogue of the
// Kubernetes controller pattern.
package reconcile

import (
	"context"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"cornet/internal/changelog"
	"cornet/internal/controller"
	"cornet/internal/core"
	"cornet/internal/inventory"
	"cornet/internal/obs"
	"cornet/internal/obs/events"
	"cornet/internal/orchestrator"
	"cornet/internal/plan/intent"
	"cornet/internal/workflow"
)

// Config wires a reconciliation Manager.
type Config struct {
	// Framework plans and executes the generated changes. Required, with
	// an invoker configured.
	Framework *core.Framework
	// Inventory is the live element state the differ reads and the
	// reconciler writes back applied changes to. Required.
	Inventory *inventory.Inventory
	// Store holds the declared fleets; nil creates an empty one.
	Store *Store
	// Journal records one revision per driven change; nil creates one.
	Journal *changelog.Journal
	// Workers bounds concurrent reconcile passes (default 1: fleets are
	// few and passes are heavyweight).
	Workers int
	// MaxParallel caps concurrent change executions within a pass and is
	// the planner's per-slot concurrency capacity. Default 4.
	MaxParallel int
	// Resync is the steady-state re-diff interval for in-sync fleets, so
	// out-of-band drift (a config change behind CORNET's back) is caught.
	// Default 30s.
	Resync time.Duration
	// PlanTimeout bounds the planning step of one pass (0: none).
	PlanTimeout time.Duration
	// Clock abstracts time for tests; defaults to time.Now.
	Clock func() time.Time
	// Limiter overrides the requeue backoff schedule (tests use a fast one).
	Limiter *controller.RateLimiter
	// Log receives reconcile-pass records; nil stays silent.
	Log *slog.Logger
}

// Manager owns the reconcile controller: the store subscription that
// enqueues changed fleets, the worker loop, and the per-fleet reconcile
// logic.
type Manager struct {
	cfg  Config
	ctrl *controller.Controller

	depMu sync.Mutex
	deps  map[string]*workflow.Deployment
}

// New builds a Manager over the given configuration and subscribes it to
// the store; call Start to begin reconciling.
func New(cfg Config) (*Manager, error) {
	if cfg.Framework == nil {
		return nil, fmt.Errorf("reconcile: Config.Framework is required")
	}
	if cfg.Inventory == nil {
		return nil, fmt.Errorf("reconcile: Config.Inventory is required")
	}
	if cfg.Store == nil {
		cfg.Store = NewStore()
	}
	if cfg.Journal == nil {
		cfg.Journal = &changelog.Journal{}
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.MaxParallel <= 0 {
		cfg.MaxParallel = 4
	}
	if cfg.Resync <= 0 {
		cfg.Resync = 30 * time.Second
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	m := &Manager{cfg: cfg, deps: map[string]*workflow.Deployment{}}
	m.ctrl = controller.New("reconcile", m.Reconcile, controller.Options{
		Workers: cfg.Workers, Limiter: cfg.Limiter, Log: cfg.Log,
	})
	cfg.Store.Subscribe(func(name string) { m.ctrl.Add(name) })
	return m, nil
}

// Store returns the fleet store the manager reconciles from.
func (m *Manager) Store() *Store { return m.cfg.Store }

// Journal returns the revision journal the manager records into.
func (m *Manager) Journal() *changelog.Journal { return m.cfg.Journal }

// Start launches the reconcile workers and enqueues every already-declared
// fleet. Cancelling ctx stops the controller.
func (m *Manager) Start(ctx context.Context) {
	m.ctrl.Start(ctx)
	for _, f := range m.cfg.Store.List() {
		m.ctrl.Add(f.Spec.Name)
	}
}

// Stop drains ready work and waits for in-flight passes to finish.
func (m *Manager) Stop() { m.ctrl.Stop() }

// Enqueue schedules an immediate reconcile pass for one fleet.
func (m *Manager) Enqueue(name string) { m.ctrl.Add(name) }

// Requeues reports the backoff requeue count for a fleet (tests and
// status endpoints).
func (m *Manager) Requeues(name string) int { return m.ctrl.Requeues(name) }

// Reconcile is one pass over one fleet: diff, plan, execute, record. It
// is the function the controller runs; the runtime handles backoff requeues
// on error and periodic resync via RequeueAfter.
func (m *Manager) Reconcile(ctx context.Context, name string) (controller.Result, error) {
	fleet, ok := m.cfg.Store.Get(name)
	if !ok {
		// Deleted declaration: nothing to drive, drop the key.
		return controller.Result{}, nil
	}
	now := m.cfg.Clock()
	// The fleet's generation change id scopes everything this pass does;
	// "fleet.<name>" is the tenant work is attributed to.
	ctx = obs.WithChangeID(ctx, fleet.ChangeID)
	ctx = obs.WithTenant(ctx, "fleet."+name)
	span := obs.FromContext(ctx)
	span.SetAttr("fleet", name)
	span.SetAttr("generation", fleet.Generation)

	drifts, err := DiffFleet(fleet.Spec, m.cfg.Inventory)
	if err != nil {
		m.setConditions(name, fleet.Generation, 0, now,
			controller.Condition{Type: controller.ConditionReady, Status: controller.ConditionFalse,
				Reason: "SelectorError", Message: err.Error()},
			controller.Condition{Type: controller.ConditionSynced, Status: controller.ConditionUnknown,
				Reason: "SelectorError"})
		return controller.Result{}, err
	}
	span.SetAttr("drift", len(drifts))
	metricDriftDetected.With(name).Add(float64(len(drifts)))
	ready := controller.Condition{Type: controller.ConditionReady, Status: controller.ConditionTrue,
		Reason: "SelectorResolved"}
	if len(drifts) == 0 {
		m.setConditions(name, fleet.Generation, 0, now, ready,
			controller.Condition{Type: controller.ConditionSynced, Status: controller.ConditionTrue,
				Reason: "InSync"})
		m.logger().LogAttrs(ctx, slog.LevelDebug, "fleet in sync", slog.String("fleet", name))
		return controller.Result{RequeueAfter: m.cfg.Resync}, nil
	}
	span.Event("drift-detected", "count", len(drifts))
	events.Default.Publish(events.Event{
		Type: events.TypeDriftDetected, Source: "reconciler",
		ChangeID: fleet.ChangeID, Tenant: "fleet." + name,
		Fields: map[string]any{"fleet": name, "generation": fleet.Generation, "drift": len(drifts)},
	})
	m.setConditions(name, fleet.Generation, len(drifts), now, ready,
		controller.Condition{Type: controller.ConditionSynced, Status: controller.ConditionFalse,
			Reason: "DriftDetected", Message: fmt.Sprintf("%d attribute(s) out of spec", len(drifts))})
	m.logger().LogAttrs(ctx, slog.LevelInfo, "fleet drifted",
		slog.String("fleet", name), slog.Int64("generation", fleet.Generation),
		slog.Int("drift", len(drifts)))

	changes, byKey, err := m.planChanges(ctx, fleet, drifts)
	if err != nil {
		m.setConditions(name, fleet.Generation, len(drifts), now, ready,
			controller.Condition{Type: controller.ConditionSynced, Status: controller.ConditionFalse,
				Reason: "PlanFailed", Message: err.Error()})
		return controller.Result{}, err
	}
	span.Event("planned", "changes", len(changes))

	applied, failed := m.execute(ctx, fleet, changes, byKey)
	span.Event("executed", "applied", applied, "failed", failed)
	m.cfg.Store.UpdateStatus(name, func(st *Status) {
		st.Applied += applied
		st.Failed += failed
		st.LastReconcile = m.cfg.Clock()
	})
	if failed > 0 {
		err := fmt.Errorf("reconcile: fleet %s: %d of %d changes failed", name, failed, len(changes))
		m.setConditions(name, fleet.Generation, len(drifts), now, ready,
			controller.Condition{Type: controller.ConditionSynced, Status: controller.ConditionFalse,
				Reason: "ExecutionFailed", Message: err.Error()})
		return controller.Result{}, err
	}
	m.setConditions(name, fleet.Generation, 0, now, ready,
		controller.Condition{Type: controller.ConditionSynced, Status: controller.ConditionTrue,
			Reason: "Converged", Message: fmt.Sprintf("applied %d change(s)", applied)})
	m.logger().LogAttrs(ctx, slog.LevelInfo, "fleet converged",
		slog.String("fleet", name), slog.Int("applied", applied))
	return controller.Result{RequeueAfter: m.cfg.Resync}, nil
}

// changeKey identifies one planned change so execution results can be
// matched back to the drift that produced them (an element may carry both
// a version and a config drift in the same pass).
func changeKey(instance, config string) string {
	if config != "" {
		return "cfg|" + instance + "|" + config
	}
	return "sw|" + instance
}

// planChanges turns the drift set into dispatchable scheduled changes by
// running the drifted elements through the schedule planner under a
// concurrency constraint of MaxParallel per slot — the declarative path
// reuses the exact planning machinery one-shot requests go through.
func (m *Manager) planChanges(ctx context.Context, fleet Fleet, drifts []Drift) ([]orchestrator.ScheduledChange, map[string]Drift, error) {
	ids := make([]string, 0, len(drifts))
	seen := map[string]bool{}
	for _, d := range drifts {
		if !seen[d.Element] {
			seen[d.Element] = true
			ids = append(ids, d.Element)
		}
	}
	slots := (len(ids) + m.cfg.MaxParallel - 1) / m.cfg.MaxParallel
	start := m.cfg.Clock().UTC().Truncate(time.Hour)
	req := &intent.Request{
		SchedulingWindow: intent.Window{
			Start:       start.Format(intent.TimeLayout),
			End:         start.Add(time.Duration(slots) * time.Hour).Format(intent.TimeLayout),
			Granularity: intent.Granularity{Metric: "hour", Value: 1},
		},
		SchedulableAttribute: inventory.AttrCommonID,
		Constraints: []intent.Constraint{{
			Name:               intent.Concurrency,
			BaseAttribute:      inventory.AttrCommonID,
			AggregateAttribute: inventory.AttrNFType,
			DefaultCapacity:    m.cfg.MaxParallel,
		}},
	}
	if err := req.Validate(); err != nil {
		return nil, nil, err
	}
	pctx := ctx
	if m.cfg.PlanTimeout > 0 {
		var cancel context.CancelFunc
		pctx, cancel = context.WithTimeout(ctx, m.cfg.PlanTimeout)
		defer cancel()
	}
	plan, err := m.cfg.Framework.PlanScheduleRequestContext(pctx, req,
		m.cfg.Inventory.Subset(ids), core.PlanOptions{RequireAll: true})
	if err != nil {
		return nil, nil, fmt.Errorf("reconcile: plan fleet %s: %w", fleet.Spec.Name, err)
	}
	byKey := make(map[string]Drift, len(drifts))
	changes := make([]orchestrator.ScheduledChange, 0, len(drifts))
	for _, d := range drifts {
		slot, ok := plan.Assignment[d.Element]
		if !ok {
			return nil, nil, fmt.Errorf("reconcile: plan fleet %s: element %s not scheduled", fleet.Spec.Name, d.Element)
		}
		inputs := map[string]string{}
		var cfgPayload string
		if d.Type == changelog.ConfigChange {
			key := d.Attr[len(ConfigAttrPrefix):]
			cfgPayload = key + "=" + d.To
			inputs["config"] = cfgPayload
		} else {
			inputs["sw_version"] = d.To
			inputs["prior_version"] = d.From
		}
		byKey[changeKey(d.Element, cfgPayload)] = d
		changes = append(changes, orchestrator.ScheduledChange{
			Instance: d.Element, Timeslot: slot, Inputs: inputs,
		})
	}
	return changes, byKey, nil
}

// execute dispatches the planned changes through the orchestrator's
// resilience layer, then folds each result back into the system of record:
// applied changes mutate the inventory, every attempt lands in the journal.
func (m *Manager) execute(ctx context.Context, fleet Fleet, changes []orchestrator.ScheduledChange, byKey map[string]Drift) (applied, failed int) {
	d := orchestrator.NewDispatcher(m.cfg.Framework.Engine, m.cfg.MaxParallel)
	results := d.Run(ctx, func(c orchestrator.ScheduledChange) (*workflow.Deployment, error) {
		if c.Inputs["config"] != "" {
			return m.deployment(workflow.ConfigChange, "config-change", fleet.Spec.NFType)
		}
		return m.deployment(workflow.SoftwareUpgrade, "software-upgrade", fleet.Spec.NFType)
	}, changes)
	// A result with no execution (a slot the dispatcher never reached, a
	// deployment that did not resolve) names its element but not which of
	// the element's changes it answers, so it is matched against what the
	// manager sent: the element's changes that no execution accounts for.
	keys := make([]string, len(results)) // the sent change each result answers
	ran := map[string]bool{}
	for i, res := range results {
		if res.Exec != nil {
			keys[i] = changeKey(res.Instance, res.Exec.State["config"])
			ran[keys[i]] = true
		}
	}
	unrun := map[string][]string{}
	for _, c := range changes {
		if key := changeKey(c.Instance, c.Inputs["config"]); !ran[key] {
			unrun[c.Instance] = append(unrun[c.Instance], key)
		}
	}
	for i, res := range results {
		if left := unrun[res.Instance]; res.Exec == nil && len(left) > 0 {
			keys[i], unrun[res.Instance] = left[0], left[1:]
		}
		drift, ok := byKey[keys[i]]
		if !ok {
			continue
		}
		rev := changelog.Revision{
			Fleet: fleet.Spec.Name, Generation: fleet.Generation,
			ChangeID: fleet.ChangeID,
			Element:  drift.Element, Type: drift.Type,
			Attr: drift.Attr, From: drift.From, To: drift.To,
			Time: m.cfg.Clock(),
		}
		if ok, detail := changeApplied(drift, res); ok {
			if err := m.cfg.Inventory.SetAttr(drift.Element, drift.Attr, drift.To); err != nil {
				rev.Outcome, rev.Detail = changelog.OutcomeFailed, err.Error()
				failed++
			} else {
				rev.Outcome = changelog.OutcomeApplied
				applied++
			}
		} else {
			rev.Outcome, rev.Detail = changelog.OutcomeFailed, detail
			failed++
		}
		metricChanges.With(fleet.Spec.Name, string(rev.Outcome)).Inc()
		m.cfg.Journal.Append(rev)
		evType := events.TypeDriftRepaired
		if rev.Outcome != changelog.OutcomeApplied {
			evType = events.TypeChangeFailed
		}
		events.Default.Publish(events.Event{
			Type: evType, Source: "reconciler",
			ChangeID: fleet.ChangeID, Tenant: "fleet." + fleet.Spec.Name,
			Fields: map[string]any{
				"element": rev.Element, "attr": rev.Attr, "from": rev.From, "to": rev.To,
				"outcome": string(rev.Outcome), "detail": rev.Detail,
			},
		})
	}
	return applied, failed
}

// changeApplied decides from an execution record whether the change took
// effect on the network, returning the failure detail otherwise. The
// workflows route around unhealthy elements and roll back degradations, so
// a "successful" execution does not imply an applied change — only the
// saved status variables do.
func changeApplied(drift Drift, res orchestrator.Result) (bool, string) {
	if res.Exec == nil {
		if res.Err != nil {
			return false, res.Err.Error()
		}
		return false, "no execution record"
	}
	state := res.Exec.State
	if res.Err != nil {
		return false, res.Err.Error()
	}
	if state["health_status"] == "failure" {
		return false, "health check failed; element skipped"
	}
	if state["compare_verdict"] == "degradation" {
		return false, "post-change comparison detected degradation; rolled back"
	}
	statusVar := "upgrade_status"
	if drift.Type == changelog.ConfigChange {
		statusVar = "change_status"
	}
	if st := state[statusVar]; st != "success" {
		return false, fmt.Sprintf("%s=%q", statusVar, st)
	}
	return true, ""
}

// deployment returns the cached deployment of the named workflow for one
// NF type, deploying it on first use.
func (m *Manager) deployment(build func() *workflow.Workflow, wfName, nfType string) (*workflow.Deployment, error) {
	key := wfName + "/" + nfType
	m.depMu.Lock()
	defer m.depMu.Unlock()
	if dep, ok := m.deps[key]; ok {
		return dep, nil
	}
	dep, err := m.cfg.Framework.DeployWorkflow(build(), nfType)
	if err != nil {
		return nil, err
	}
	m.deps[key] = dep
	return dep, nil
}

// setConditions stamps the observed generation, drift gauge, and the given
// conditions onto a fleet's status.
func (m *Manager) setConditions(name string, gen int64, drift int, now time.Time, conds ...controller.Condition) {
	m.cfg.Store.UpdateStatus(name, func(st *Status) {
		st.ObservedGeneration = gen
		st.Drift = drift
		for _, c := range conds {
			st.Conditions = controller.SetCondition(st.Conditions, c, now)
		}
	})
}

// logger returns the configured logger or a no-op.
func (m *Manager) logger() *slog.Logger {
	if m.cfg.Log != nil {
		return m.cfg.Log
	}
	return obs.NopLogger()
}
