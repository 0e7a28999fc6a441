// Package orchestrator executes deployed change workflows (Section 3.4).
//
// It plays the role Camunda plays in the paper: it walks the workflow graph
// from start to end, invokes each building block through its REST API,
// records fine-grained per-block status and timing logs, treats each block
// execution as atomic, and supports pause/resume so operations teams can
// halt an automated execution on unexpected alarms and continue after
// troubleshooting.
//
// Block invocations run under execution policies (per-attempt timeouts,
// retries with jittered backoff, circuit breakers, and failure actions —
// see the resilience subpackage and DESIGN.md §9), so workflows survive
// the transient production failures §5.1 describes without operator
// babysitting, and back out cleanly when an endpoint is truly dead.
package orchestrator

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"time"

	"cornet/internal/catalog"
	"cornet/internal/obs"
	"cornet/internal/obs/events"
	"cornet/internal/obs/tenants"
	"cornet/internal/orchestrator/resilience"
	"cornet/internal/workflow"
)

// Invoker dispatches a building-block invocation to its implementation via
// the REST location recorded in the deployment. The testbed provides an
// in-process implementation; cmd/cornetd wires a real HTTP one.
type Invoker interface {
	Invoke(ctx context.Context, api string, args map[string]string) (outputs map[string]string, err error)
}

// InvokerFunc adapts a function to the Invoker interface.
type InvokerFunc func(ctx context.Context, api string, args map[string]string) (map[string]string, error)

// Invoke implements Invoker.
func (f InvokerFunc) Invoke(ctx context.Context, api string, args map[string]string) (map[string]string, error) {
	return f(ctx, api, args)
}

// Status of a block execution or a whole workflow execution.
type Status string

// Terminal and in-flight statuses shared by block logs and executions.
// StatusRolledBack marks an execution terminated by a rollback failure
// action: the change did not apply, but the block's compensation ran.
const (
	StatusSuccess    Status = "success"
	StatusFailure    Status = "failure"
	StatusRunning    Status = "running"
	StatusPaused     Status = "paused"
	StatusRolledBack Status = "rolledback"
)

// BlockLog is the per-building-block execution record: the fine-grained
// logging that lets operations teams identify offending blocks post hoc.
type BlockLog struct {
	NodeID   string
	Block    string
	API      string
	Status   Status
	Err      string
	Started  time.Time
	Duration time.Duration
	// Attempts counts the invocations made under the block's execution
	// policy: 1 for a clean first try, more after retries, 0 when the
	// circuit breaker rejected the call before any attempt.
	Attempts int
	// Action records the failure action applied when the block exhausted
	// its attempts ("" when the block succeeded or none was needed).
	Action resilience.Action
}

// Execution is the record of one workflow run against one instance.
type Execution struct {
	mu       sync.Mutex
	Workflow string
	Instance string
	Status   Status
	Err      string
	Started  time.Time
	Finished time.Time
	Logs     []BlockLog
	State    map[string]string // final global state

	pauseReq   chan struct{}
	resumeReq  chan struct{}
	paused     bool
	lastAction resilience.Action
}

// setLastAction records the most recent failure action applied.
func (e *Execution) setLastAction(a resilience.Action) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.lastAction = a
}

// LastAction reports the most recent failure action a block policy applied
// during this execution ("" when every block succeeded first try or only
// retries were needed).
func (e *Execution) LastAction() resilience.Action {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.lastAction
}

// Pause requests a halt after the currently executing building block
// completes (block executions are atomic). It is safe to call from any
// goroutine and is idempotent while an execution is running.
func (e *Execution) Pause() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.Status == StatusRunning && !e.paused {
		e.paused = true
		select {
		case e.pauseReq <- struct{}{}:
		default:
		}
	}
}

// Resume continues a paused execution.
func (e *Execution) Resume() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.paused {
		e.paused = false
		select {
		case e.resumeReq <- struct{}{}:
		default:
		}
	}
}

// Paused reports whether a pause has been requested/active.
func (e *Execution) Paused() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.paused
}

// snapshotStatus returns the current status and error under the lock.
func (e *Execution) snapshotStatus() (Status, string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.Status, e.Err
}

// snapshotLogs returns a copy of the block logs.
func (e *Execution) snapshotLogs() []BlockLog {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]BlockLog(nil), e.Logs...)
}

// FailedBlocks returns the node ids of blocks that failed, supporting the
// post-hoc analysis of unsuccessful change executions.
func (e *Execution) FailedBlocks() []string {
	var out []string
	for _, l := range e.snapshotLogs() {
		if l.Status == StatusFailure {
			out = append(out, l.NodeID)
		}
	}
	return out
}

// Engine executes deployments.
type Engine struct {
	invoker Invoker
	// Clock abstracts time for tests; defaults to time.Now.
	Clock func() time.Time
	// MaxSteps bounds graph traversal to catch accidental cycles at run
	// time (verification should prevent them, but defense in depth).
	MaxSteps int
	// Log receives structured per-block and per-workflow execution records
	// (the paper's fine-grained execution logging). nil stays silent;
	// cmd/cornetd injects its server logger here.
	Log *slog.Logger
	// Defaults is the engine-wide execution policy applied to every task
	// node; a node's own Policy overlays it field by field. The zero
	// value preserves the historical semantics (one attempt, no timeout,
	// continue on failure).
	Defaults resilience.Policy
	// Breakers, when non-nil, gates every building-block invocation
	// through a per-API circuit breaker shared across executions. Use
	// EnableBreakers to get trip/close metrics and logs wired up.
	Breakers *resilience.BreakerSet
	// Sleep waits between retry attempts; tests inject a fake to make
	// backoff instantaneous. Defaults to a context-aware timer sleep.
	Sleep func(context.Context, time.Duration) error
	// Concurrency bounds how many workflow executions run at once: every
	// execution — synchronous Execute calls included — holds one slot of a
	// counting semaphore while it runs, and excess executions wait their
	// turn. 0 means the default bound (32). Set it before the first
	// execution; it is not consulted afterwards.
	Concurrency int

	jitter    *jitterRand
	slotsOnce sync.Once
	slots     chan struct{} // counting semaphore: one token per running execution
}

// NewEngine returns an engine dispatching through the given invoker. The
// backoff jitter source is seeded deterministically; use SeedJitter to
// vary it.
func NewEngine(inv Invoker) *Engine {
	return &Engine{
		invoker:  inv,
		Clock:    time.Now,
		MaxSteps: 10_000,
		Sleep:    ctxSleep,
		jitter:   newJitterRand(1),
	}
}

// SeedJitter reseeds the backoff jitter source, making the engine's retry
// schedule reproducible for a given seed. Not safe to call concurrently
// with running executions.
func (eng *Engine) SeedJitter(seed int64) {
	eng.jitter = newJitterRand(seed)
}

// EnableBreakers installs a circuit-breaker set with the given config and
// wires its state transitions into the engine's metrics and logs. It
// returns the set so callers can inspect or reset breakers at run time.
func (eng *Engine) EnableBreakers(cfg resilience.BreakerConfig) *resilience.BreakerSet {
	set := resilience.NewBreakerSet(cfg)
	set.OnTransition = func(api string, from, to resilience.State) {
		metricBreakerTransitions.With(string(to)).Inc()
		if to == resilience.Open {
			metricBreakerTrips.With(api).Inc()
		}
		// Breaker transitions are shared across executions, so the event
		// carries no change id — it lands in timelines only via /api/events.
		eng.emit(context.Background(), slog.LevelWarn, "circuit breaker transition", events.TypeBreaker,
			slog.String("api", api), slog.String("from", string(from)), slog.String("to", string(to)))
	}
	eng.Breakers = set
	return set
}

// ErrHalted is returned when the context is cancelled mid-execution.
var ErrHalted = errors.New("orchestrator: execution halted")

// runInSlot runs the execution while holding one of the engine's
// Concurrency slots, waiting for one as long as ctx lasts. A ctx that ends
// first runs the execution without a slot: run checks ctx before its first
// step, so the execution fails as halted with its start/end events and
// metrics recorded and no block invoked.
func (eng *Engine) runInSlot(ctx context.Context, dep *workflow.Deployment, exec *Execution) {
	eng.slotsOnce.Do(func() {
		n := eng.Concurrency
		if n <= 0 {
			n = 32
		}
		eng.slots = make(chan struct{}, n)
	})
	select {
	case eng.slots <- struct{}{}:
		defer func() { <-eng.slots }()
	case <-ctx.Done():
	}
	eng.run(ctx, dep, exec)
}

// Execute runs a deployed workflow against inputs, on the caller's
// goroutine. The required workflow inputs must be present in inputs. The
// execution shares the Concurrency bound with Start, so the call may wait
// for a slot; use Start plus Execution.Pause for interactive control.
func (eng *Engine) Execute(ctx context.Context, dep *workflow.Deployment, inputs map[string]string) (*Execution, error) {
	exec, ok := eng.prepare(dep, inputs)
	if !ok {
		return exec, errors.New(exec.Err)
	}
	eng.runInSlot(ctx, dep, exec)
	switch st, errMsg := exec.snapshotStatus(); st {
	case StatusFailure:
		return exec, fmt.Errorf("orchestrator: workflow %s on %s failed: %s", exec.Workflow, exec.Instance, errMsg)
	case StatusRolledBack:
		return exec, fmt.Errorf("orchestrator: workflow %s on %s rolled back: %s", exec.Workflow, exec.Instance, errMsg)
	}
	return exec, nil
}

// Start begins an asynchronous execution and returns immediately with the
// live Execution handle plus a done channel. The execution runs on its own
// goroutine once one of the engine's Concurrency slots frees up.
func (eng *Engine) Start(ctx context.Context, dep *workflow.Deployment, inputs map[string]string) (*Execution, <-chan struct{}) {
	exec, ok := eng.prepare(dep, inputs)
	done := make(chan struct{})
	if !ok {
		close(done)
		return exec, done
	}
	go func() {
		defer close(done)
		eng.runInSlot(ctx, dep, exec)
	}()
	return exec, done
}

// prepare builds the execution record and checks the workflow's required
// inputs; it reports false when one is missing, with the record already
// failed.
func (eng *Engine) prepare(dep *workflow.Deployment, inputs map[string]string) (*Execution, bool) {
	exec := &Execution{
		Workflow:  dep.WorkflowName,
		Instance:  inputs["instance"],
		Status:    StatusRunning,
		Started:   eng.Clock(),
		State:     map[string]string{},
		pauseReq:  make(chan struct{}, 1),
		resumeReq: make(chan struct{}, 1),
	}
	for k, v := range inputs {
		exec.State[k] = v
	}
	for _, p := range dep.Workflow.Inputs {
		if p.Required {
			if _, ok := inputs[p.Name]; !ok {
				exec.Status = StatusFailure
				exec.Err = fmt.Sprintf("missing required workflow input %q", p.Name)
				exec.Finished = eng.Clock()
				return exec, false
			}
		}
	}
	return exec, true
}

func (eng *Engine) run(ctx context.Context, dep *workflow.Deployment, exec *Execution) {
	ctx, wsp := obs.StartSpan(ctx, "wf.execute")
	wsp.SetAttr("workflow", exec.Workflow)
	wsp.SetAttr("instance", exec.Instance)
	eng.emit(ctx, slog.LevelInfo, "workflow started", events.TypeWfStart,
		slog.String("workflow", exec.Workflow), slog.String("instance", exec.Instance))
	log := eng.logger()
	defer func() {
		exec.mu.Lock()
		st, errMsg, blocks := exec.Status, exec.Err, int64(len(exec.Logs))
		exec.mu.Unlock()
		wsp.SetAttr("status", string(st))
		lvl := slog.LevelInfo
		if st == StatusFailure || st == StatusRolledBack {
			wsp.Fail(errors.New(errMsg))
			lvl = slog.LevelWarn
		}
		wsp.End()
		metricWfExecutions.With(exec.Workflow, string(st)).Inc()
		tenants.Default.RecordBlocks(obs.Tenant(ctx), blocks)
		attrs := []slog.Attr{
			slog.String("workflow", exec.Workflow), slog.String("instance", exec.Instance),
			slog.String("status", string(st)), slog.Int64("blocks", blocks),
		}
		if errMsg != "" {
			attrs = append(attrs, slog.String("error", errMsg))
		}
		eng.emit(ctx, lvl, "workflow finished", events.TypeWfEnd, attrs...)
	}()
	w := dep.Workflow
	cur := w.StartNode()
	steps := 0
	fail := func(format string, args ...any) {
		eng.finish(exec, StatusFailure, fmt.Sprintf(format, args...))
	}
	for {
		if steps++; steps > eng.MaxSteps {
			fail("exceeded %d steps; cyclic workflow?", eng.MaxSteps)
			return
		}
		if err := ctx.Err(); err != nil {
			fail("%v: %v", ErrHalted, err)
			return
		}
		// Honor a pause request between atomic block executions.
		if exec.Paused() {
			exec.mu.Lock()
			exec.Status = StatusPaused
			exec.mu.Unlock()
			wsp.Event("paused", "at", cur)
			metricWfPauses.Inc()
			log.LogAttrs(ctx, slog.LevelInfo, "workflow paused",
				slog.String("workflow", exec.Workflow), slog.String("at", cur))
			select {
			case <-exec.resumeReq:
				exec.mu.Lock()
				exec.Status = StatusRunning
				exec.mu.Unlock()
				wsp.Event("resumed", "at", cur)
				metricWfResumes.Inc()
				log.LogAttrs(ctx, slog.LevelInfo, "workflow resumed",
					slog.String("workflow", exec.Workflow), slog.String("at", cur))
			case <-ctx.Done():
				fail("%v while paused", ErrHalted)
				return
			}
		}

		node, ok := nodeByID(w, cur)
		if !ok {
			fail("dangling edge to %q", cur)
			return
		}
		succ := w.Succ(cur)
		switch node.Kind {
		case workflow.Start:
			cur = succ[""]
		case workflow.End:
			eng.finish(exec, StatusSuccess, "")
			return
		case workflow.Decision:
			v := exec.State[node.Cond]
			branch := "no"
			if isAffirmative(v) {
				branch = "yes"
			}
			next, ok := succ[branch]
			if !ok {
				fail("decision %q missing %q branch", cur, branch)
				return
			}
			cur = next
		case workflow.Task:
			if !eng.runTask(ctx, dep, exec, node) {
				return
			}
			cur = succ[""]
		default:
			fail("unknown node kind %q", node.Kind)
			return
		}
		if cur == "" {
			fail("node %q has no successor", node.ID)
			return
		}
	}
}

// blockArgs materializes the invocation arguments for a task: the full
// execution state is propagated by default, explicit Args bindings
// (literals "=v" or state references "$var") override.
func (eng *Engine) blockArgs(exec *Execution, node *workflow.Node) map[string]string {
	args := map[string]string{}
	exec.mu.Lock()
	defer exec.mu.Unlock()
	for k, v := range exec.State {
		args[k] = v
	}
	for name, binding := range node.Args {
		if strings.HasPrefix(binding, "$") {
			args[name] = exec.State[binding[1:]]
		} else {
			args[name] = strings.TrimPrefix(binding, "=")
		}
	}
	return args
}

// runTask invokes one building block atomically under its execution policy
// (node policy overlaid on the engine defaults); returns false if the
// workflow must stop. Transient invocation errors are retried with backoff
// inside the block's atomic boundary; once the attempt budget is exhausted
// the policy's failure action decides what happens:
//
//   - continue (default): record the failure in state and let decision
//     nodes route around it, mirroring Fig. 4;
//   - skip: mark the block skipped and proceed;
//   - abort: fail the whole execution;
//   - pause: park the execution for an operator, re-run the block with a
//     fresh budget on resume;
//   - rollback: invoke the block's compensation API and terminate the
//     execution in the rolled-back state.
func (eng *Engine) runTask(ctx context.Context, dep *workflow.Deployment, exec *Execution, node *workflow.Node) bool {
	api := dep.BlockAPIs[node.Block]
	pol := node.Policy.Merge(eng.Defaults)
	for {
		err := eng.invokeBlock(ctx, exec, node, api, pol)
		if err == nil {
			return true
		}
		if ctx.Err() != nil {
			// Infrastructure-level cancellation aborts outright.
			eng.finish(exec, StatusFailure, ctx.Err().Error())
			return false
		}
		action := pol.OnExhausted
		if action == "" {
			action = resilience.ActionContinue
		}
		metricWfFailureActions.With(node.Block, string(action)).Inc()
		obs.FromContext(ctx).Event("failure-action",
			"node", node.ID, "action", string(action), "err", err.Error())
		eng.emit(ctx, slog.LevelWarn, "block failure action", events.TypeFailureAction,
			slog.String("workflow", exec.Workflow), slog.String("node", node.ID), slog.String("block", node.Block),
			slog.String("action", string(action)), slog.String("error", err.Error()))
		exec.setLastAction(action)
		switch action {
		case resilience.ActionContinue:
			// Record the failure in state so decision nodes can branch on
			// it; if no decision consumes it the workflow proceeds, per
			// "at least one start-to-end flow" (§3.4).
			eng.markSaves(exec, node, "failure")
			return true
		case resilience.ActionSkip:
			eng.markSaves(exec, node, "skipped")
			return true
		case resilience.ActionAbort:
			eng.finish(exec, StatusFailure, fmt.Sprintf("block %s aborted workflow: %v", node.ID, err))
			return false
		case resilience.ActionPause:
			if !eng.pauseForOperator(ctx, exec, node, err) {
				return false
			}
			continue // resumed: re-run the block with a fresh budget
		case resilience.ActionRollback:
			eng.compensate(ctx, dep, exec, node)
			eng.finish(exec, StatusRolledBack, fmt.Sprintf("block %s failed and rolled back: %v", node.ID, err))
			return false
		default:
			eng.finish(exec, StatusFailure, fmt.Sprintf("block %s: unknown failure action %q", node.ID, action))
			return false
		}
	}
}

// invokeBlock performs one policy-governed invocation cycle of a task
// (first attempt plus retries), records it and — on success — saves the
// outputs. It returns the final error when the cycle exhausted its attempts.
func (eng *Engine) invokeBlock(ctx context.Context, exec *Execution, node *workflow.Node, api string, pol resilience.Policy) error {
	args := eng.blockArgs(exec, node)
	bctx, bsp := obs.StartSpan(ctx, "bb."+node.Block)
	bsp.SetAttr("node", node.ID)
	bsp.SetAttr("block", node.Block)
	bsp.SetAttr("api", api)
	entry := BlockLog{NodeID: node.ID, Block: node.Block, API: api, Started: eng.Clock()}
	outputs, attempts, err := eng.invoke(bctx, api, args, pol, func(attempt int, delay time.Duration, cause error) {
		metricBBRetries.With(node.Block).Inc()
		bsp.Event("retry", "attempt", attempt, "delay", delay.String(), "err", cause.Error())
		eng.emit(ctx, slog.LevelWarn, "block retry scheduled", events.TypeBlockRetry,
			slog.String("workflow", exec.Workflow), slog.String("node", node.ID), slog.String("block", node.Block),
			slog.Int("attempt", attempt), slog.Int64("backoff_ns", delay.Nanoseconds()), slog.String("error", cause.Error()))
	})
	entry.Attempts = attempts
	bsp.SetAttr("attempts", attempts)
	if err != nil {
		entry.Action = pol.OnExhausted
		if errors.Is(err, resilience.ErrBreakerOpen) {
			bsp.Event("breaker-open", "api", api)
		}
	}
	eng.recordBlock(ctx, exec, bsp, entry, err, false)
	if err == nil {
		exec.mu.Lock()
		for out, v := range node.Saves {
			if val, ok := outputs[out]; ok {
				exec.State[v] = val
			}
		}
		exec.mu.Unlock()
	}
	return err
}

// recordBlock is the one place a finished block invocation is written down,
// a task's policy cycle and a compensation alike: err decides the entry's
// status, then the span closes, the two block metrics move, a roll-back is
// counted and journaled, the log record is written and the entry joins the
// execution's logs. ctx is the workflow's, sp the block's span.
func (eng *Engine) recordBlock(ctx context.Context, exec *Execution, sp *obs.Span, entry BlockLog, err error, compensation bool) {
	entry.Duration = eng.Clock().Sub(entry.Started)
	entry.Status = StatusSuccess
	lvl := slog.LevelInfo
	if err != nil {
		entry.Status, entry.Err, lvl = StatusFailure, err.Error(), slog.LevelWarn
	}
	sp.SetAttr("status", string(entry.Status))
	sp.Fail(err)
	sp.End()
	metricBBInvocations.With(entry.Block, string(entry.Status)).Inc()
	metricBBDuration.With(entry.Block).Observe(entry.Duration.Seconds())
	// A roll-back happened when a compensation ran, however it ended, or
	// when the graph's own roll-back node succeeded.
	rolledBack := compensation || entry.Block == catalog.BBRollback && err == nil
	if rolledBack {
		obs.FromContext(ctx).SetAttr("rollback", true)
		metricWfRollbacks.Inc()
	}
	wf, node := slog.String("workflow", exec.Workflow), slog.String("node", entry.NodeID)
	block, status := slog.String("block", entry.Block), slog.String("status", string(entry.Status))
	if compensation {
		eng.emit(ctx, lvl, "compensation executed", events.TypeRollback,
			wf, node, block, slog.Bool("compensation", true), status)
	} else {
		if rolledBack {
			eng.publish(ctx, events.TypeRollback, wf, node, block)
		}
		eng.logger().LogAttrs(ctx, lvl, "block executed", wf, node, block, status,
			slog.Int("attempts", entry.Attempts), slog.Duration("duration", entry.Duration), slog.String("err", entry.Err))
	}
	exec.mu.Lock()
	exec.Logs = append(exec.Logs, entry)
	exec.mu.Unlock()
}

// markSaves writes a sentinel value into every state variable the node
// would have saved, so downstream decisions can branch on the outcome.
func (eng *Engine) markSaves(exec *Execution, node *workflow.Node, sentinel string) {
	exec.mu.Lock()
	defer exec.mu.Unlock()
	for _, v := range node.Saves {
		exec.State[v] = sentinel
	}
}

// finish stamps a terminal status on the execution.
func (eng *Engine) finish(exec *Execution, st Status, errMsg string) {
	exec.mu.Lock()
	defer exec.mu.Unlock()
	exec.Status = st
	exec.Err = errMsg
	exec.Finished = eng.Clock()
}

// pauseForOperator parks a failing block's execution in the paused state
// (the paper's troubleshoot-then-continue loop) until Resume or context
// cancellation. It returns true when the execution was resumed and the
// block should be re-attempted.
func (eng *Engine) pauseForOperator(ctx context.Context, exec *Execution, node *workflow.Node, cause error) bool {
	exec.mu.Lock()
	exec.Status = StatusPaused
	exec.paused = true
	exec.Err = fmt.Sprintf("paused at block %s: %v", node.ID, cause)
	exec.mu.Unlock()
	obs.FromContext(ctx).Event("paused", "at", node.ID, "err", cause.Error())
	metricWfPauses.Inc()
	eng.logger().LogAttrs(ctx, slog.LevelWarn, "workflow paused on block failure",
		slog.String("workflow", exec.Workflow), slog.String("node", node.ID),
		slog.String("err", cause.Error()))
	select {
	case <-exec.resumeReq:
		exec.mu.Lock()
		exec.Status = StatusRunning
		exec.paused = false
		exec.Err = ""
		exec.mu.Unlock()
		obs.FromContext(ctx).Event("resumed", "at", node.ID)
		metricWfResumes.Inc()
		eng.logger().LogAttrs(ctx, slog.LevelInfo, "workflow resumed, re-running block",
			slog.String("workflow", exec.Workflow), slog.String("node", node.ID))
		return true
	case <-ctx.Done():
		eng.finish(exec, StatusFailure, fmt.Sprintf("%v while paused at %s", ErrHalted, node.ID))
		return false
	}
}

// compensate invokes the failing block's compensation building block (the
// node's Compensate, defaulting to the catalog roll-back block) — the
// paper's rollback decision executed automatically. Compensation runs
// without retries but with the engine's default timeout, and its outcome
// is recorded as a block log like any other invocation.
func (eng *Engine) compensate(ctx context.Context, dep *workflow.Deployment, exec *Execution, node *workflow.Node) {
	comp := node.Compensate
	if comp == "" {
		comp = catalog.BBRollback
	}
	api, ok := dep.BlockAPIs[comp]
	if !ok {
		api = comp // bare block name: direct runners accept it
	}
	args := eng.blockArgs(exec, node)
	cctx, csp := obs.StartSpan(ctx, "bb."+comp)
	csp.SetAttr("node", node.ID)
	csp.SetAttr("block", comp)
	csp.SetAttr("compensation", true)
	// The compensation runs against the same possibly-degraded NF that just
	// exhausted its retry budget, so it inherits the block's per-attempt
	// timeout; without it a blackholed NF would hang the rollback forever.
	if to := node.Policy.Merge(eng.Defaults).Timeout.Std(); to > 0 {
		var cancel context.CancelFunc
		cctx, cancel = context.WithTimeout(cctx, to)
		defer cancel()
	}
	entry := BlockLog{
		NodeID: node.ID, Block: comp, API: api, Started: eng.Clock(),
		Attempts: 1, Action: resilience.ActionRollback,
	}
	outputs, err := eng.invoker.Invoke(cctx, api, args)
	if err == nil && outputs["status"] == "failure" {
		err = errors.New("compensation reported failure: " + outputs["detail"])
	}
	eng.recordBlock(ctx, exec, csp, entry, err, true)
}

func nodeByID(w *workflow.Workflow, id string) (*workflow.Node, bool) {
	for i := range w.Nodes {
		if w.Nodes[i].ID == id {
			return &w.Nodes[i], true
		}
	}
	return nil, false
}

func isAffirmative(v string) bool {
	switch strings.ToLower(v) {
	case "success", "true", "yes", "ok", "pass", "no-impact", "improvement":
		return true
	}
	return false
}
