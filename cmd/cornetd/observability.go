package main

import (
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"time"

	"cornet/internal/obs"
	"cornet/internal/obs/events"
	"cornet/internal/obs/slo"
	"cornet/internal/obs/tenants"
)

// version identifies the cornetd build; override with
// -ldflags "-X main.version=v1.2.3".
var version = "dev"

// registerBuildInfo exports the standard build-info gauge: a constant 1
// whose labels carry the build identity, so dashboards can join any other
// metric against the running version.
func registerBuildInfo() {
	obs.Default.GaugeVec("cornet_build_info",
		"Build identity of the running cornetd (value is always 1).",
		"version", "go_version", "revision").
		With(version, runtime.Version(), buildRevision()).Set(1)
}

// changeIDFromRequest resolves the change identifier for an ingress
// request: a valid X-Change-ID header is honored (so one operator-side
// change threads plan, execute, and verify into a single timeline), and
// anything else mints a fresh id.
func changeIDFromRequest(r *http.Request) string {
	if id := r.Header.Get("X-Change-ID"); id != "" && tenantOK(id) {
		return id
	}
	return obs.NewChangeID()
}

// handleVersion serves the build identity as JSON.
func (s *server) handleVersion(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Version   string `json:"version"`
		GoVersion string `json:"go_version"`
		Revision  string `json:"revision,omitempty"`
	}{version, runtime.Version(), buildRevision()})
}

// handleSLO serves every registered objective's evaluated state: window
// compliance, remaining error budget, and the multi-window burn-rate
// alert pairs.
func (s *server) handleSLO(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	writeJSON(w, http.StatusOK, s.slo.Status())
}

// handleTenants serves the per-tenant accounting snapshot.
func (s *server) handleTenants(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	writeJSON(w, http.StatusOK, tenants.Default.Snapshot())
}

// timelineResponse is the reconstructed lifecycle of one change id.
type timelineResponse struct {
	ChangeID string `json:"change_id"`
	// Start and End bound the observed events.
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
	// Sources lists the subsystems that contributed events, in first-
	// appearance order (admission, serve, engine, orchestrator, verifier,
	// reconciler).
	Sources []string       `json:"sources"`
	Events  []events.Event `json:"events"`
}

// handleTimeline serves GET /api/changes/{id}/timeline: every journal
// event carrying the change id, oldest first, with the contributing
// subsystems summarized. 404 when the journal holds nothing for the id
// (never seen, or already overwritten in the bounded ring).
func (s *server) handleTimeline(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	rest := strings.TrimPrefix(r.URL.Path, "/api/changes/")
	id, suffix, ok := strings.Cut(rest, "/")
	if !ok || suffix != "timeline" || id == "" {
		http.Error(w, "want /api/changes/{id}/timeline", http.StatusNotFound)
		return
	}
	evs := events.Default.Query(events.Filter{ChangeID: id})
	if len(evs) == 0 {
		http.Error(w, fmt.Sprintf("no events for change %q", id), http.StatusNotFound)
		return
	}
	resp := timelineResponse{ChangeID: id, Start: evs[0].Time, End: evs[len(evs)-1].Time, Events: evs}
	seen := map[string]bool{}
	for _, e := range evs {
		if e.Source != "" && !seen[e.Source] {
			seen[e.Source] = true
			resp.Sources = append(resp.Sources, e.Source)
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// newSLOTracker builds the server's SLO tracker over the default
// objectives and feeds it from the event journal, subscribed to the types
// the tracker reads only: the plan path alone publishes thousands of other
// events a second, and a feed that takes them all overflows its buffer
// and drops the few it wanted. The returned stop function detaches the
// feed (the subscription is returned for its Dropped count).
func newSLOTracker() (*slo.Tracker, *events.Subscription, func()) {
	tr := slo.New()
	for _, o := range slo.DefaultObjectives() {
		// The objective set is static and validated by its own tests.
		if err := tr.Register(o); err != nil {
			panic(err)
		}
	}
	sub := events.Default.Subscribe(events.Filter{Types: slo.ConsumedTypes()}, 256)
	done := make(chan struct{})
	go func() {
		defer close(done)
		tr.Feed(sub)
	}()
	return tr, sub, func() {
		sub.Close()
		<-done
	}
}
