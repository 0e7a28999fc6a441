package main

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"cornet/internal/inventory"
	"cornet/internal/reconcile"
	"cornet/internal/testbed"
)

// assignMarket derives a deterministic market for a testbed NF from its
// instance index: even indexes land in "east", odd in "west". A production
// deployment would read markets from the operator inventory; the simulated
// fleet just needs a stable, queryable split so /api/desired specs can
// scope to a market.
func assignMarket(nf *testbed.NF) map[string]string {
	idx := 0
	if i := strings.LastIndex(nf.ID, "-"); i >= 0 {
		idx, _ = strconv.Atoi(nf.ID[i+1:])
	}
	market := "east"
	if idx%2 == 1 {
		market = "west"
	}
	return map[string]string{inventory.AttrMarket: market}
}

// handleDesired is the declarative API: operators declare desired fleet
// state instead of submitting one-shot change requests, and the reconcile
// controller drives the testbed toward the declaration (with backoff
// retries on failure and periodic drift resync).
//
//	GET    /api/desired            list declared fleets with status
//	GET    /api/desired?name=f     fetch one fleet
//	POST   /api/desired            apply a fleet spec; returns the fleet
//	DELETE /api/desired?name=f     withdraw a declaration
func (s *server) handleDesired(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		if name := r.URL.Query().Get("name"); name != "" {
			f, ok := s.rec.Store().Get(name)
			if !ok {
				http.Error(w, fmt.Sprintf("unknown fleet %q", name), http.StatusNotFound)
				return
			}
			writeJSON(w, http.StatusOK, f)
			return
		}
		writeJSON(w, http.StatusOK, s.rec.Store().List())
	case http.MethodPost:
		var spec reconcile.Spec
		if err := decode(r, &spec); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		f, err := s.rec.Store().Apply(spec)
		if err != nil {
			http.Error(w, err.Error(), http.StatusUnprocessableEntity)
			return
		}
		if f.ChangeID != "" {
			w.Header().Set("X-Change-ID", f.ChangeID)
		}
		writeJSON(w, http.StatusOK, f)
	case http.MethodDelete:
		name := r.URL.Query().Get("name")
		if name == "" {
			http.Error(w, "name query parameter required", http.StatusBadRequest)
			return
		}
		if !s.rec.Store().Delete(name) {
			http.Error(w, fmt.Sprintf("unknown fleet %q", name), http.StatusNotFound)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	default:
		http.Error(w, "GET, POST or DELETE", http.StatusMethodNotAllowed)
	}
}

// handleRevisions exposes the change journal: one audit revision per change
// the reconciler drove — applied or failed — with the spec generation that
// demanded it. The optional ?fleet= parameter filters to one fleet.
func (s *server) handleRevisions(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	if fleet := r.URL.Query().Get("fleet"); fleet != "" {
		writeJSON(w, http.StatusOK, s.rec.Journal().ByFleet(fleet))
		return
	}
	writeJSON(w, http.StatusOK, s.rec.Journal().List())
}
