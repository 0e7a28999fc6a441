package main

import (
	"errors"
	"net/http"

	"cornet/internal/compose"
	composeserve "cornet/internal/compose/serve"
	"cornet/internal/workflow"
)

// composeRequest is the optional "compose" object of a POST
// /api/wf/execute body: the change's declared network scope plus its
// conflict disposition.
type composeRequest struct {
	composeserve.Scope
	// OnConflict chooses queue or reject ("" = the server default).
	OnConflict string `json:"on_conflict,omitempty"`
}

// executeComposed is the compose branch of POST /api/wf/execute: submit
// the scoped change into the composition service (internal/compose/serve
// owns the delta, the union solve and the per-member attribution) and
// answer with this member's share of the composed schedule — or the 409
// conflict diagnosis.
func (s *server) executeComposed(w http.ResponseWriter, r *http.Request,
	dep *workflow.Deployment, inputs map[string]string,
	creq *composeRequest, tenant, changeID string) {

	mode, err := s.comp.Mode(creq.OnConflict)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	m, err := s.comp.Submit(r.Context(), composeserve.Change{
		ID: changeID, Tenant: tenant, Deployment: dep, Inputs: inputs, Scope: creq.Scope,
	}, mode)
	var refused *composeserve.RefusedError
	if errors.As(err, &refused) {
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}
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
	writeJSON(w, http.StatusOK, struct {
		Status      string                   `json:"status"`
		ChangeID    string                   `json:"change_id"`
		ComposedID  string                   `json:"composed_id"`
		Members     []string                 `json:"members"`
		Strategy    string                   `json:"strategy"`
		Parallelism compose.Parallelism      `json:"parallelism"`
		Makespan    int                      `json:"makespan"`
		CacheHit    bool                     `json:"cache_hit"`
		Executions  []composeserve.Execution `json:"executions"`
		Unscheduled []string                 `json:"unscheduled,omitempty"`
		// Unowned surfaces instances the composed schedule planned but
		// nobody executed (their only claimants canceled mid-window).
		Unowned []string `json:"unowned,omitempty"`
	}{m.Status, changeID, m.Outcome.ComposedID, m.Outcome.Members, m.Outcome.Strategy, m.Outcome.Parallelism,
		m.Run.Plan.Result.Makespan, m.Run.Plan.CacheHit, m.Executions, m.Unscheduled, m.Run.Unowned})
}
