package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"time"

	"cornet/internal/compose"
	"cornet/internal/core"
	"cornet/internal/inventory"
	"cornet/internal/obs"
	"cornet/internal/orchestrator"
	"cornet/internal/plan/intent"
	planserve "cornet/internal/plan/serve"
	"cornet/internal/plan/translate"
	"cornet/internal/workflow"
)

// composeSettings are the server-level composition knobs (the -compose-*
// flags).
type composeSettings struct {
	// Strategy names the composition strategy (subtree | node | attribute).
	Strategy string
	// Window is the longest a submission waits for others to merge with.
	Window time.Duration
	// MaxBatch seals a composition generation at this many members even if
	// the remembered cohort is larger (0 = no cap).
	MaxBatch int
	// Conflict is the default on_conflict mode (queue | reject) for
	// submissions that do not choose one.
	Conflict string
	// Slots is the composed schedule's maintenance-window count.
	Slots int
	// Capacity is the per-slot concurrency capacity of the composed plan,
	// and the dispatcher concurrency under Partial parallelism.
	Capacity int
}

// normalize fills defaults and validates the names.
func (c *composeSettings) normalize() error {
	if c.Strategy == "" {
		c.Strategy = "subtree"
	}
	if c.Conflict == "" {
		c.Conflict = "reject"
	}
	if c.Slots <= 0 {
		c.Slots = 4
	}
	if c.Capacity <= 0 {
		c.Capacity = 2
	}
	if _, err := compose.ForName(c.Strategy); err != nil {
		return err
	}
	_, err := compose.ParseConflictMode(c.Conflict)
	return err
}

// composeEpoch anchors the composed schedule's scheduling window. It is a
// fixed instant — not wall time — so the composed intent, and therefore
// the canonical model fingerprint and the per-item signatures deltas are
// derived from, depend only on the submitted scopes. That determinism is
// what makes composed planning order-independent and cache-identical to
// planning the union directly.
const composeEpoch = "2026-01-01 00:00:00"

// newComposeIntent builds the fixed intent every composed schedule is
// planned under: hourly slots from the epoch, elements scheduled
// individually (ESA common_id), bounded per-slot concurrency per NF type.
func newComposeIntent(slots, capacity int) *intent.Request {
	start, _ := time.Parse(intent.TimeLayout, composeEpoch)
	req := &intent.Request{
		SchedulingWindow: intent.Window{
			Start:       composeEpoch,
			End:         start.Add(time.Duration(slots) * time.Hour).Format(intent.TimeLayout),
			Granularity: intent.Granularity{Metric: "hour", Value: 1},
		},
		SchedulableAttribute: inventory.AttrCommonID,
		Constraints: []intent.Constraint{{
			Name:               intent.Concurrency,
			BaseAttribute:      inventory.AttrCommonID,
			AggregateAttribute: inventory.AttrNFType,
			DefaultCapacity:    capacity,
		}},
	}
	if err := req.Validate(); err != nil {
		// Static document; a failure here is a programming error.
		panic(err)
	}
	return req
}

// composeRequest is the optional "compose" object of a POST
// /api/wf/execute body: the change's declared network scope plus its
// conflict disposition.
type composeRequest struct {
	// Scope lists fleet element ids the change touches.
	Scope []string `json:"scope,omitempty"`
	// Markets expands to every fleet element in the named markets.
	Markets []string `json:"markets,omitempty"`
	// Attrs narrows listed elements to attribute-level ops (element id ->
	// attribute -> intended value), letting attribute-granularity changes
	// share a node. Elements listed in Attrs must be in scope.
	Attrs map[string]map[string]string `json:"attrs,omitempty"`
	// OnConflict chooses queue or reject ("" = the server default).
	OnConflict string `json:"on_conflict,omitempty"`
}

// composePayload is what a pending composed submission needs at solve
// time: the deployment to execute and the workflow inputs, plus the
// payload signature (payloadSig) composeSolve dedupes executions by.
// Entries are reference-counted so an idempotent resubmission of a
// pending change shares the first submission's payload.
type composePayload struct {
	dep    *workflow.Deployment
	inputs map[string]string
	sig    uint64
	refs   int
}

// composedRun is the shared solve result of one sealed generation.
type composedRun struct {
	// Plan is the single served plan of the union scope.
	Plan *planserve.Response
	// Owners maps each instance to the sorted member change ids claiming
	// it.
	Owners map[string][]string
	// Served maps each dispatched execution — keyed by servedKey(instance,
	// dispatching change id) — to every member change id it served:
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

// servedKey keys one dispatched execution in composedRun.Served.
func servedKey(instance, changeID string) string {
	return instance + "\x1f" + changeID
}

// payloadSig signs a submission's executable payload (workflow API plus
// inputs) — the identity by which composeSolve decides whether two
// co-claiming members of one instance can share a single execution.
func payloadSig(api string, inputs map[string]string) uint64 {
	parts := []string{api}
	for _, k := range sortedKeys(inputs) {
		parts = append(parts, k, inputs[k])
	}
	return compose.Sig(parts...)
}

// registerPayload records (or references) the pending payload for a
// change id; release undoes one reference.
func (s *server) registerPayload(changeID string, dep *workflow.Deployment, inputs map[string]string, sig uint64) {
	s.cmu.Lock()
	defer s.cmu.Unlock()
	if p, ok := s.pending[changeID]; ok {
		p.refs++
		return
	}
	s.pending[changeID] = &composePayload{dep: dep, inputs: inputs, sig: sig, refs: 1}
}

func (s *server) releasePayload(changeID string) {
	s.cmu.Lock()
	defer s.cmu.Unlock()
	if p, ok := s.pending[changeID]; ok {
		if p.refs--; p.refs <= 0 {
			delete(s.pending, changeID)
		}
	}
}

func (s *server) payload(changeID string) *composePayload {
	s.cmu.Lock()
	defer s.cmu.Unlock()
	return s.pending[changeID]
}

// scopePath places a fleet element in the composition namespace:
// {market, id}, or {id} when the element carries no market.
func (s *server) scopePath(id string) compose.Path {
	if e, ok := s.fleetInv.Get(id); ok {
		if m, ok := e.Attr(inventory.AttrMarket); ok && m != "" {
			return compose.Path{m, id}
		}
	}
	return compose.Path{id}
}

// buildDelta derives the submission's delta: translate the scope subset
// under the fixed compose intent and sign each element with its model
// item signature XOR the payload signature, so two changes produce the
// identical op — and compose idempotently — exactly when they would do
// the same thing to the same element. Elements with declared Attrs emit
// attribute-level ops instead of a whole-node claim.
func (s *server) buildDelta(changeID, tenant, api string, inputs map[string]string, creq *composeRequest) (*compose.Delta, error) {
	ids := map[string]bool{}
	for _, id := range creq.Scope {
		if _, ok := s.fleetInv.Get(id); !ok {
			return nil, fmt.Errorf("compose scope: unknown element %q", id)
		}
		ids[id] = true
	}
	for _, m := range creq.Markets {
		members := s.fleetInv.Filter(func(e *inventory.Element) bool {
			v, _ := e.Attr(inventory.AttrMarket)
			return v == m
		})
		if len(members) == 0 {
			return nil, fmt.Errorf("compose scope: market %q matches no elements", m)
		}
		for _, id := range members {
			ids[id] = true
		}
	}
	if len(ids) == 0 {
		return nil, errors.New("compose scope: empty (set scope and/or markets)")
	}
	for id := range creq.Attrs {
		if !ids[id] {
			return nil, fmt.Errorf("compose attrs: element %q not in scope", id)
		}
	}
	idList := make([]string, 0, len(ids))
	for id := range ids {
		idList = append(idList, id)
	}
	sort.Strings(idList)

	tr, err := translate.Translate(s.compIntent, s.fleetInv.Subset(idList), translate.Options{})
	if err != nil {
		return nil, fmt.Errorf("compose scope: %w", err)
	}
	paySig := payloadSig(api, inputs)

	d := compose.NewDelta(changeID, tenant)
	for id, sig := range tr.Model.ItemSignatures() {
		p := s.scopePath(id)
		if attrs := creq.Attrs[id]; len(attrs) > 0 {
			for _, k := range sortedKeys(attrs) {
				d.AddAttr(p, k, compose.Sig(k, attrs[k]))
			}
			continue
		}
		d.AddNode(p, sig^paySig)
	}
	return d.Canon(), nil
}

func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// executeComposed is the compose branch of POST /api/wf/execute: derive
// the delta, submit it into the composer, and answer with this member's
// share of the composed schedule — or the 409 conflict diagnosis.
func (s *server) executeComposed(w http.ResponseWriter, r *http.Request,
	dep *workflow.Deployment, api string, inputs map[string]string,
	creq *composeRequest, tenant, changeID string) {

	mode, err := compose.ParseConflictMode(creq.OnConflict)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if creq.OnConflict == "" {
		mode, _ = compose.ParseConflictMode(s.compCfg.Conflict)
	}
	delta, err := s.buildDelta(changeID, tenant, api, inputs, creq)
	if err != nil {
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	s.registerPayload(changeID, dep, inputs, payloadSig(api, inputs))
	defer s.releasePayload(changeID)

	ctx := obs.WithTenant(obs.WithChangeID(r.Context(), changeID), tenant)
	out, err := s.composer.Submit(ctx, delta, mode)
	w.Header().Set("X-Change-ID", changeID)
	if err != nil {
		var cerr *compose.ConflictError
		switch {
		case errors.As(err, &cerr):
			writeJSON(w, http.StatusConflict, struct {
				Error     string             `json:"error"`
				ChangeID  string             `json:"change_id"`
				Requeued  int                `json:"requeued,omitempty"`
				Diagnosis *compose.Diagnosis `json:"diagnosis"`
			}{cerr.Error(), changeID, cerr.Requeued, cerr.Diagnosis})
		case errors.Is(err, compose.ErrStopped):
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
		default:
			http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		}
		return
	}

	run, ok := out.Result.(*composedRun)
	if !ok {
		http.Error(w, "compose: no solve result", http.StatusInternalServerError)
		return
	}
	type execSummary struct {
		Instance string `json:"instance"`
		Timeslot int    `json:"timeslot"`
		Status   string `json:"status"`
		Error    string `json:"error,omitempty"`
	}
	var execs []execSummary
	mine := map[string]bool{}
	for inst, owners := range run.Owners {
		for _, ch := range owners {
			if ch == changeID {
				mine[inst] = true
			}
		}
	}
	status := "composed"
	for _, res := range run.Results {
		// A result is this member's when its dispatch served this change —
		// either the member's own execution or an identical-payload
		// co-claimant's that stood in for it.
		if !memberOf(run.Served[servedKey(res.Instance, res.ChangeID)], changeID) {
			continue
		}
		e := execSummary{Instance: res.Instance, Timeslot: res.Timeslot}
		if res.Exec != nil {
			e.Status = string(res.Exec.Status)
		}
		if res.Err != nil {
			e.Error = res.Err.Error()
			status = "failed"
		}
		execs = append(execs, e)
	}
	var unscheduled []string
	for inst := range mine {
		if _, ok := run.Plan.Result.Assignment[inst]; !ok {
			unscheduled = append(unscheduled, inst)
		}
	}
	sort.Strings(unscheduled)
	writeJSON(w, http.StatusOK, struct {
		Status      string              `json:"status"`
		ChangeID    string              `json:"change_id"`
		ComposedID  string              `json:"composed_id"`
		Members     []string            `json:"members"`
		Strategy    string              `json:"strategy"`
		Parallelism compose.Parallelism `json:"parallelism"`
		Makespan    int                 `json:"makespan"`
		CacheHit    bool                `json:"cache_hit"`
		Executions  []execSummary       `json:"executions"`
		Unscheduled []string            `json:"unscheduled,omitempty"`
		// Unowned surfaces instances the composed schedule planned but
		// nobody executed (their only claimants canceled mid-window).
		Unowned []string `json:"unowned,omitempty"`
	}{status, changeID, out.ComposedID, out.Members, out.Strategy, out.Parallelism,
		run.Plan.Result.Makespan, run.Plan.CacheHit, execs, unscheduled, run.Unowned})
}

// memberOf reports whether id is in the sorted/unsorted member list.
func memberOf(members []string, id string) bool {
	for _, m := range members {
		if m == id {
			return true
		}
	}
	return false
}

// composeSolve is the composer's Solve callback, run once per sealed
// generation: plan the union scope directly as a single schedule through
// the serving layer (so a composed solve gets the same cache,
// singleflight, and admission treatment as any other plan), then dispatch
// every scheduled instance with the member change's id threaded into its
// execution context — member timelines record their own wf.start/wf.end
// inside the one composed dispatch.
func (s *server) composeSolve(ctx context.Context, composed *compose.Delta, members []*compose.Delta) (any, error) {
	owners := map[string][]string{}
	for _, m := range members {
		for _, op := range m.Ops {
			inst := op.Path[len(op.Path)-1]
			list := owners[inst]
			if len(list) == 0 || list[len(list)-1] != m.ChangeID {
				owners[inst] = append(list, m.ChangeID)
			}
		}
	}
	instances := make([]string, 0, len(owners))
	for inst := range owners {
		instances = append(instances, inst)
		sort.Strings(owners[inst])
	}
	sort.Strings(instances)

	tenant := composed.Tenant
	if tenant == "" {
		tenant = "compose"
	}
	served, err := s.planSrv.Plan(ctx, tenant, s.compIntent, s.fleetInv.Subset(instances),
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
			pay := s.payload(ch)
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
			// Surfaced in composedRun.Unowned rather than silently skipped.
			unowned = append(unowned, inst)
		}
	}
	sort.Strings(unowned)
	conc := 1
	switch s.composer.Strategy().Parallelism() {
	case compose.Full:
		conc = len(changes)
	case compose.Partial:
		conc = s.compCfg.Capacity
	}
	if conc < 1 {
		conc = 1
	}
	disp := orchestrator.NewDispatcher(s.f.Engine, conc)
	results := disp.Run(ctx, func(c orchestrator.ScheduledChange) (*workflow.Deployment, error) {
		return deps[c.ChangeID], nil
	}, changes)
	return &composedRun{Plan: served, Owners: owners, Served: servedBy, Unowned: unowned, Results: results}, nil
}
