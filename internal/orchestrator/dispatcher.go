package orchestrator

import (
	"context"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"

	"cornet/internal/obs"
	"cornet/internal/workflow"
)

// ScheduledChange binds one instance to a deployment, its inputs, and the
// timeslot the schedule planner assigned.
type ScheduledChange struct {
	Instance string
	Timeslot int
	Inputs   map[string]string
	// ChangeID, when set, attributes the execution to a change timeline:
	// the dispatcher threads it into the workflow's context so the
	// orchestrator's lifecycle events land on that change's journal
	// timeline. Composed schedules set it per constituent, keeping each
	// member change's execution trail separate inside the one dispatch.
	ChangeID string
}

// Dispatcher invokes the orchestrator at the scheduled time for each
// instance (Section 3.4). Timeslots are logical (maintenance windows); the
// dispatcher processes them in order, running the changes of one slot with
// bounded concurrency, and triggering the next instance's workflow as soon
// as a worker frees up.
type Dispatcher struct {
	Engine *Engine
	// Concurrency bounds simultaneous workflow executions within a slot
	// (the run-time counterpart of the planner's concurrency constraint).
	Concurrency int
	// OnSlotStart, if set, is called before each timeslot is processed.
	OnSlotStart func(slot int, n int)
}

// NewDispatcher wraps an engine with a concurrency limit.
func NewDispatcher(eng *Engine, concurrency int) *Dispatcher {
	if concurrency < 1 {
		concurrency = 1
	}
	return &Dispatcher{Engine: eng, Concurrency: concurrency}
}

// Result pairs an instance with its completed execution.
type Result struct {
	Instance string
	Timeslot int
	// ChangeID echoes the scheduled change's id ("" when the change was
	// dispatched without one), so callers dispatching several changes
	// against one instance — composed attribute-granularity schedules —
	// can attribute each result to its owner.
	ChangeID string
	Exec     *Execution
	Err      error
}

// Run executes all scheduled changes slot by slot and returns one result
// per change, ordered by (timeslot, instance, change id). Each slot's
// changes start in that order on at most Concurrency workers, and the next
// slot waits for all of them. A context cancellation stops dispatching
// further slots — their changes come back with a nil Exec and an Err
// wrapping ErrHalted — but lets in-flight workflows finish their current
// block.
func (d *Dispatcher) Run(ctx context.Context, dep DeploymentResolver, changes []ScheduledChange) []Result {
	bySlot := map[int][]ScheduledChange{}
	for _, c := range changes {
		bySlot[c.Timeslot] = append(bySlot[c.Timeslot], c)
	}
	slots := make([]int, 0, len(bySlot))
	for s := range bySlot {
		slots = append(slots, s)
	}
	sort.Ints(slots)

	results := make([]Result, len(changes))
	filled := 0
	for _, slot := range slots {
		batch := bySlot[slot]
		out := results[filled : filled+len(batch)]
		filled += len(batch)
		sort.Slice(batch, func(i, j int) bool {
			if batch[i].Instance != batch[j].Instance {
				return batch[i].Instance < batch[j].Instance
			}
			return batch[i].ChangeID < batch[j].ChangeID
		})
		if err := ctx.Err(); err != nil {
			for i, c := range batch {
				out[i] = Result{
					Instance: c.Instance, Timeslot: c.Timeslot, ChangeID: c.ChangeID,
					Err: fmt.Errorf("dispatcher: %s not dispatched: %w: %v", c.Instance, ErrHalted, err),
				}
				metricDispatched.With("halted").Inc()
			}
			continue
		}
		if d.OnSlotStart != nil {
			d.OnSlotStart(slot, len(batch))
		}
		slotCtx, ssp := obs.StartSpan(ctx, "dispatch.slot")
		ssp.SetAttr("slot", slot)
		ssp.SetAttr("changes", len(batch))
		d.Engine.logger().LogAttrs(ctx, slog.LevelInfo, "dispatching timeslot",
			slog.Int("slot", slot), slog.Int("changes", len(batch)))
		// Workers pull the next index, so changes start in batch order and
		// each writes only its own element of out. The slot boundary is a
		// barrier: the planner's concurrency constraint only holds within
		// a maintenance window.
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := max(1, min(d.Concurrency, len(batch))); w > 0; w-- {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(batch) {
						return
					}
					out[i] = d.dispatch(slotCtx, dep, batch[i])
				}
			}()
		}
		wg.Wait()
		ssp.End()
	}
	return results
}

// dispatch resolves one change's deployment and executes it.
func (d *Dispatcher) dispatch(ctx context.Context, dep DeploymentResolver, c ScheduledChange) Result {
	res := Result{Instance: c.Instance, Timeslot: c.Timeslot, ChangeID: c.ChangeID}
	deployment, err := dep(c)
	if err != nil {
		res.Err = fmt.Errorf("dispatcher: resolve deployment for %s: %w", c.Instance, err)
		metricDispatched.With("resolve-error").Inc()
		return res
	}
	if c.ChangeID != "" {
		ctx = obs.WithChangeID(ctx, c.ChangeID)
	}
	inputs := map[string]string{"instance": c.Instance}
	for k, v := range c.Inputs {
		inputs[k] = v
	}
	res.Exec, res.Err = d.Engine.Execute(ctx, deployment, inputs)
	switch {
	case res.Exec != nil && res.Exec.Status == StatusRolledBack:
		metricDispatched.With("rolledback").Inc()
	case res.Err != nil:
		metricDispatched.With("failure").Inc()
	default:
		metricDispatched.With("success").Inc()
	}
	return res
}

// DeploymentResolver selects the deployment for a scheduled change; it lets
// a single dispatch run mix NF types (each resolving to its own deployment
// artifact).
type DeploymentResolver func(ScheduledChange) (*workflow.Deployment, error)
