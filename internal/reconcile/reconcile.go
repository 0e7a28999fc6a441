// Package reconcile is the declarative layer over CORNET's imperative
// pipeline: operators declare desired fleet state ("every vGW in market-7
// runs software >= v2 with mtu=9000") instead of submitting one-shot
// change requests, and a reconciliation loop continuously drives the
// network toward the declaration.
//
// Each pass diffs the declared spec against the live inventory, plans the
// drifted elements through the schedule planner (internal/core),
// executes the generated change workflows through the orchestrator's
// resilience layer, records an audit revision per change in the bounded
// revision journal, and updates the fleet's status conditions and
// observed generation. The Manager runs the passes on one goroutine over
// a queue of fleet names — watch, diff, apply, requeue, the ops-loop
// primitive of "Service Provider DevOps" (John et al.). A failed pass
// requeues its fleet with exponential backoff, so transient testbed
// faults heal without operator involvement; a fleet in sync is re-diffed
// periodically to catch out-of-band drift.
package reconcile

import (
	"context"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"cornet/internal/changelog"
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
	// MaxParallel caps concurrent change executions within a pass and is
	// the planner's per-slot concurrency capacity. Default 4.
	MaxParallel int
	// Log receives reconcile-pass records; nil stays silent.
	Log *slog.Logger
}

// Manager owns the declared fleets, the revision journal, and the loop
// that reconciles them: the store's change notifications queue a fleet,
// one goroutine runs its passes.
type Manager struct {
	cfg     Config
	store   *Store
	journal *Journal
	loop    *loop

	depMu sync.Mutex
	deps  map[string]*workflow.Deployment
}

// New builds a Manager over the given configuration and subscribes it to
// its store; call Start to begin reconciling.
func New(cfg Config) (*Manager, error) {
	if cfg.Framework == nil {
		return nil, fmt.Errorf("reconcile: Config.Framework is required")
	}
	if cfg.Inventory == nil {
		return nil, fmt.Errorf("reconcile: Config.Inventory is required")
	}
	if cfg.MaxParallel <= 0 {
		cfg.MaxParallel = 4
	}
	if cfg.Log == nil {
		cfg.Log = obs.NopLogger()
	}
	m := &Manager{cfg: cfg, store: NewStore(), journal: &Journal{},
		deps: map[string]*workflow.Deployment{}}
	m.loop = newLoop(m.Reconcile, cfg.Log)
	m.store.Subscribe(func(name string) { m.loop.add(name) })
	return m, nil
}

// Store returns the fleet store the manager reconciles from.
func (m *Manager) Store() *Store { return m.store }

// Journal returns the revision journal the manager records into.
func (m *Manager) Journal() *Journal { return m.journal }

// Start queues every already-declared fleet, then launches the reconcile
// goroutine: queued before the worker runs, a fleet a notification already
// queued is not run twice. Passes run under ctx; cancelling it stops the
// loop as Stop does. Only the first call starts anything.
func (m *Manager) Start(ctx context.Context) {
	for _, f := range m.store.List() {
		m.loop.add(f.Spec.Name)
	}
	m.loop.start(ctx)
}

// Stop refuses further work and cancels pending requeues, then waits for
// the pass in flight to finish and the queued fleets to drain.
func (m *Manager) Stop() { m.loop.stop() }

// Requeues reports a fleet's consecutive failed passes, each of which
// requeued it with backoff; a successful pass resets it to zero.
func (m *Manager) Requeues(name string) int { return m.loop.requeues(name) }

// Reconcile is one pass over one fleet: diff, plan, execute, record. It
// is the pass the loop runs: an error requeues the fleet with backoff, and
// requeueAfter > 0 re-diffs it after that delay.
func (m *Manager) Reconcile(ctx context.Context, name string) (requeueAfter time.Duration, err error) {
	fleet, ok := m.store.Get(name)
	if !ok {
		// Deleted declaration: nothing to drive, drop the key.
		return 0, nil
	}
	now := time.Now()
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
			Condition{Type: ConditionReady, Status: ConditionFalse,
				Reason: "SelectorError", Message: err.Error()},
			Condition{Type: ConditionSynced, Status: ConditionUnknown,
				Reason: "SelectorError"})
		return 0, err
	}
	span.SetAttr("drift", len(drifts))
	metricDriftDetected.With(name).Add(float64(len(drifts)))
	ready := Condition{Type: ConditionReady, Status: ConditionTrue, Reason: "SelectorResolved"}
	if len(drifts) == 0 {
		m.setConditions(name, fleet.Generation, 0, now, ready,
			Condition{Type: ConditionSynced, Status: ConditionTrue, Reason: "InSync"})
		m.cfg.Log.LogAttrs(ctx, slog.LevelDebug, "fleet in sync", slog.String("fleet", name))
		return resync, nil
	}
	span.Event("drift-detected", "count", len(drifts))
	events.Default.Publish(events.Event{
		Type: events.TypeDriftDetected, Source: "reconciler",
		ChangeID: fleet.ChangeID, Tenant: "fleet." + name,
		Fields: map[string]any{"fleet": name, "generation": fleet.Generation, "drift": len(drifts)},
	})
	m.setConditions(name, fleet.Generation, len(drifts), now, ready,
		Condition{Type: ConditionSynced, Status: ConditionFalse,
			Reason: "DriftDetected", Message: fmt.Sprintf("%d attribute(s) out of spec", len(drifts))})
	m.cfg.Log.LogAttrs(ctx, slog.LevelInfo, "fleet drifted",
		slog.String("fleet", name), slog.Int64("generation", fleet.Generation),
		slog.Int("drift", len(drifts)))

	changes, byKey, err := m.planChanges(ctx, fleet, drifts)
	if err != nil {
		m.setConditions(name, fleet.Generation, len(drifts), now, ready,
			Condition{Type: ConditionSynced, Status: ConditionFalse,
				Reason: "PlanFailed", Message: err.Error()})
		return 0, err
	}
	span.Event("planned", "changes", len(changes))

	applied, failed := m.execute(ctx, fleet, changes, byKey)
	span.Event("executed", "applied", applied, "failed", failed)
	m.store.UpdateStatus(name, func(st *Status) {
		st.Applied += applied
		st.Failed += failed
		st.LastReconcile = time.Now()
	})
	if failed > 0 {
		err := fmt.Errorf("reconcile: fleet %s: %d of %d changes failed", name, failed, len(changes))
		m.setConditions(name, fleet.Generation, len(drifts), now, ready,
			Condition{Type: ConditionSynced, Status: ConditionFalse,
				Reason: "ExecutionFailed", Message: err.Error()})
		return 0, err
	}
	m.setConditions(name, fleet.Generation, 0, now, ready,
		Condition{Type: ConditionSynced, Status: ConditionTrue,
			Reason: "Converged", Message: fmt.Sprintf("applied %d change(s)", applied)})
	m.cfg.Log.LogAttrs(ctx, slog.LevelInfo, "fleet converged",
		slog.String("fleet", name), slog.Int("applied", applied))
	return resync, nil
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
	start := time.Now().UTC().Truncate(time.Hour)
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
	plan, err := m.cfg.Framework.PlanScheduleRequestContext(ctx, req,
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
		rev := Revision{
			Fleet: fleet.Spec.Name, Generation: fleet.Generation,
			ChangeID: fleet.ChangeID,
			Element:  drift.Element, Type: drift.Type,
			Attr: drift.Attr, From: drift.From, To: drift.To,
		}
		if ok, detail := changeApplied(drift, res); ok {
			if err := m.cfg.Inventory.SetAttr(drift.Element, drift.Attr, drift.To); err != nil {
				rev.Outcome, rev.Detail = OutcomeFailed, err.Error()
				failed++
			} else {
				rev.Outcome = OutcomeApplied
				applied++
			}
		} else {
			rev.Outcome, rev.Detail = OutcomeFailed, detail
			failed++
		}
		metricChanges.With(fleet.Spec.Name, string(rev.Outcome)).Inc()
		m.journal.Append(rev)
		evType := events.TypeDriftRepaired
		if rev.Outcome != OutcomeApplied {
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
func (m *Manager) setConditions(name string, gen int64, drift int, now time.Time, conds ...Condition) {
	m.store.UpdateStatus(name, func(st *Status) {
		st.ObservedGeneration = gen
		st.Drift = drift
		for _, c := range conds {
			st.Conditions = SetCondition(st.Conditions, c, now)
		}
	})
}
