package serve

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"

	"cornet/internal/compose"
	"cornet/internal/core"
	"cornet/internal/orchestrator"
	planserve "cornet/internal/plan/serve"
	"cornet/internal/workflow"
)

// payload is what a pending submission needs at solve time: the deployment
// to execute and the workflow inputs, plus the payload signature the solve
// dedupes executions by.
type payload struct {
	dep    *workflow.Deployment
	inputs map[string]string
	sig    uint64
	refs   int
}

// payloads holds the payloads of the submissions currently waiting inside
// the composer, keyed by change id. Entries are reference-counted so an
// idempotent resubmission of a pending change shares the first
// submission's payload.
type payloads struct {
	mu      sync.Mutex
	pending map[string]*payload
}

// acquire records (or references) the pending payload for a change id. A
// pending id resubmitted with a different payload is refused: its delta may
// equal the first one's (attribute-level ops are signed without the
// payload), so it would join idempotently and be answered with the first
// submission's payload executed.
func (r *payloads) acquire(changeID string, dep *workflow.Deployment, inputs map[string]string, sig uint64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if p, ok := r.pending[changeID]; ok {
		if p.sig != sig {
			return fmt.Errorf("compose: change %s already pending with a different payload", changeID)
		}
		p.refs++
		return nil
	}
	r.pending[changeID] = &payload{dep: dep, inputs: inputs, sig: sig, refs: 1}
	return nil
}

// release undoes one acquire.
func (r *payloads) release(changeID string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if p, ok := r.pending[changeID]; ok {
		if p.refs--; p.refs <= 0 {
			delete(r.pending, changeID)
		}
	}
}

func (r *payloads) get(changeID string) *payload {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.pending[changeID]
}

// Owners maps each instance the member deltas touch — an op's last path
// component — to the sorted change ids claiming it, and lists the instances
// sorted.
func Owners(members []*compose.Delta) (owners map[string][]string, instances []string) {
	owners = map[string][]string{}
	for _, m := range members {
		for _, op := range m.Ops {
			inst := op.Path[len(op.Path)-1]
			list := owners[inst]
			if len(list) == 0 || list[len(list)-1] != m.ChangeID {
				owners[inst] = append(list, m.ChangeID)
			}
		}
	}
	instances = make([]string, 0, len(owners))
	for inst := range owners {
		instances = append(instances, inst)
		sort.Strings(owners[inst])
	}
	sort.Strings(instances)
	return owners, instances
}

// Run is the shared solve result of one sealed generation.
type Run struct {
	// Plan is the single served plan of the union scope.
	Plan *planserve.Response
	// Owners maps each instance to the sorted member change ids claiming
	// it.
	Owners map[string][]string
	// Served maps each dispatched execution — keyed by instance and
	// dispatching change id (servedKey) — to every member change id it served:
	// co-claimants whose payloads were identical ride the one dispatch;
	// members with a distinct payload get their own entry.
	Served map[string][]string
	// Unowned lists instances that were planned into the composed schedule
	// but never dispatched because no claiming member still had a live
	// payload (its submitter canceled after the generation sealed), sorted.
	Unowned []string
	// Results are the dispatch outcomes, ordered by (slot, instance,
	// change).
	Results []orchestrator.Result
}

// servedKey keys one dispatched execution in Run.Served.
func servedKey(instance, changeID string) string {
	return instance + "\x1f" + changeID
}

// solve is the composer's Solve callback, run once per sealed generation:
// plan the union scope directly as a single schedule, then dispatch every
// scheduled instance with the member change's id threaded into its
// execution context — member timelines record their own wf.start/wf.end
// inside the one composed dispatch.
func (s *Service) solve(ctx context.Context, composed *compose.Delta, members []*compose.Delta) (any, error) {
	owners, instances := Owners(members)
	tenant := composed.Tenant
	if tenant == "" {
		tenant = "compose"
	}
	served, err := s.cfg.Plan(ctx, tenant, s.intent, s.cfg.Inventory.Subset(instances),
		core.PlanOptions{RequireAll: true})
	if err != nil {
		return nil, fmt.Errorf("compose: plan union scope: %w", err)
	}

	var changes []orchestrator.ScheduledChange
	deps := map[string]*workflow.Deployment{} // dispatching change id -> deployment
	servedBy := map[string][]string{}
	var unowned []string
	for _, inst := range instances {
		slot, ok := served.Result.Assignment[inst]
		if !ok {
			continue
		}
		// Each distinct payload among the instance's claiming members
		// dispatches once: co-claimants whose payloads are identical —
		// the only co-claim node and subtree granularity admit — share
		// that one execution, while attribute-granularity members who
		// validly co-claim the node with different deployments or inputs
		// each execute their own.
		bySig := map[uint64]string{} // payload sig -> dispatching change id
		for _, ch := range owners[inst] {
			pay := s.payloads.get(ch)
			if pay == nil {
				continue
			}
			if exec, ok := bySig[pay.sig]; ok {
				k := servedKey(inst, exec)
				servedBy[k] = append(servedBy[k], ch)
				continue
			}
			bySig[pay.sig] = ch
			// The schedule decides the instance; a stray "instance" input
			// must not override the dispatcher's per-change injection.
			inputs := map[string]string{}
			for k, v := range pay.inputs {
				if k != "instance" {
					inputs[k] = v
				}
			}
			changes = append(changes, orchestrator.ScheduledChange{
				Instance: inst, Timeslot: slot, Inputs: inputs, ChangeID: ch,
			})
			deps[ch] = pay.dep
			servedBy[servedKey(inst, ch)] = []string{ch}
		}
		if len(bySig) == 0 {
			// Planned but unexecutable: every claiming member's payload was
			// released (submitter canceled after the generation sealed).
			// Surfaced in Run.Unowned rather than silently skipped.
			unowned = append(unowned, inst)
		}
	}
	disp := orchestrator.NewDispatcher(s.cfg.Engine,
		concurrency(s.composer.Strategy().Parallelism(), s.cfg.Capacity, len(changes)))
	results := disp.Run(ctx, func(c orchestrator.ScheduledChange) (*workflow.Deployment, error) {
		return deps[c.ChangeID], nil
	}, changes)
	return &Run{Plan: served, Owners: owners, Served: servedBy, Unowned: unowned, Results: results}, nil
}

// concurrency is the dispatcher bound a strategy's parallelism promise
// buys: everything at once under Full, the plan's per-slot capacity under
// Partial, one at a time under None.
func concurrency(p compose.Parallelism, capacity, changes int) int {
	switch p {
	case compose.Full:
		return changes
	case compose.Partial:
		return capacity
	}
	return 1
}

// Execution is one dispatched execution on a member's answer.
type Execution struct {
	Instance string `json:"instance"`
	Timeslot int    `json:"timeslot"`
	Status   string `json:"status"`
	Error    string `json:"error,omitempty"`
}

// Member is one submission's share of a composed run.
type Member struct {
	// Outcome is the generation's identity: composed id, members, strategy,
	// parallelism, and what sealed it.
	Outcome *compose.Outcome
	// Run is the generation's shared solve result.
	Run *Run
	// Status is "composed", or "failed" when one of the member's executions
	// erred.
	Status string
	// Executions are the dispatches that served this member — its own, or
	// an identical-payload co-claimant's that stood in for it.
	Executions []Execution
	// Unscheduled lists the member's instances the plan left out, sorted.
	Unscheduled []string
}

// member cuts one change's share out of the run.
func (r *Run) member(changeID string, out *compose.Outcome) *Member {
	m := &Member{Outcome: out, Run: r, Status: "composed"}
	for _, res := range r.Results {
		if !slices.Contains(r.Served[servedKey(res.Instance, res.ChangeID)], changeID) {
			continue
		}
		e := Execution{Instance: res.Instance, Timeslot: res.Timeslot}
		if res.Exec != nil {
			e.Status = string(res.Exec.Status)
		}
		if res.Err != nil {
			e.Error = res.Err.Error()
			m.Status = "failed"
		}
		m.Executions = append(m.Executions, e)
	}
	for inst, owners := range r.Owners {
		if _, ok := r.Plan.Result.Assignment[inst]; !ok && slices.Contains(owners, changeID) {
			m.Unscheduled = append(m.Unscheduled, inst)
		}
	}
	sort.Strings(m.Unscheduled)
	return m
}
