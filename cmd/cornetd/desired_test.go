package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"cornet/internal/reconcile"
)

// startReconciler runs the server's reconcile manager for the duration of
// the test, the way serve() does for the daemon.
func startReconciler(t *testing.T, s *server) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	s.rec.Start(ctx)
	t.Cleanup(func() {
		cancel()
		s.rec.Stop()
	})
}

// getFleet fetches one fleet over the API.
func getFleet(t *testing.T, srv *httptest.Server, name string) (reconcile.Fleet, int) {
	t.Helper()
	resp, err := http.Get(srv.URL + "/api/desired?name=" + name)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var f reconcile.Fleet
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&f); err != nil {
			t.Fatal(err)
		}
	}
	return f, resp.StatusCode
}

// waitFleet polls the API until the fleet satisfies cond or a deadline hits.
func waitFleet(t *testing.T, srv *httptest.Server, name string, cond func(reconcile.Fleet) bool) reconcile.Fleet {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	var last reconcile.Fleet
	for time.Now().Before(deadline) {
		f, code := getFleet(t, srv, name)
		if code == http.StatusOK {
			last = f
			if cond(f) {
				return f
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("fleet %s never reached condition; last status %+v", name, last.Status)
	return last
}

// TestDesiredStateConvergesOverHTTP is the operator's declarative
// walkthrough: POST a desired fleet spec, watch the status conditions
// converge, audit the journal, withdraw the declaration.
func TestDesiredStateConvergesOverHTTP(t *testing.T) {
	s, srv := testServer(t)
	startReconciler(t, s)

	resp := postJSON(t, srv.URL+"/api/desired", map[string]any{
		"name": "vce-east", "nf_type": "vCE", "market": "east", "sw_version": "v3",
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("apply status = %s", resp.Status)
	}
	var fleet reconcile.Fleet
	if err := json.NewDecoder(resp.Body).Decode(&fleet); err != nil {
		t.Fatal(err)
	}
	if fleet.Generation != 1 {
		t.Fatalf("generation = %d, want 1", fleet.Generation)
	}

	got := waitFleet(t, srv, "vce-east", func(f reconcile.Fleet) bool {
		return reconcile.ConditionIs(f.Status.Conditions, reconcile.ConditionSynced, reconcile.ConditionTrue)
	})
	if got.Status.ObservedGeneration != 1 || got.Status.Applied == 0 || got.Status.Failed != 0 {
		t.Fatalf("status = %+v", got.Status)
	}
	// Only the even-indexed (east-market) vCE instances were upgraded.
	for _, nf := range s.tb.All() {
		if nf.Type != "vCE" {
			continue
		}
		want := "v1"
		if assignMarket(nf)["market"] == "east" {
			want = "v3"
		}
		if v := nf.ActiveVersion(); v != want {
			t.Fatalf("%s active version = %s, want %s", nf.ID, v, want)
		}
	}

	// The journal records each applied change, filtered per fleet.
	rresp, err := http.Get(srv.URL + "/api/revisions?fleet=vce-east")
	if err != nil {
		t.Fatal(err)
	}
	defer rresp.Body.Close()
	var revs []reconcile.Revision
	if err := json.NewDecoder(rresp.Body).Decode(&revs); err != nil {
		t.Fatal(err)
	}
	if len(revs) != got.Status.Applied {
		t.Fatalf("journal has %d revisions, applied %d", len(revs), got.Status.Applied)
	}
	for _, r := range revs {
		if r.Outcome != reconcile.OutcomeApplied || r.To != "v3" || r.Generation != 1 {
			t.Fatalf("revision %+v", r)
		}
	}

	// Withdrawing the declaration removes the fleet.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/api/desired?name=vce-east", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete status = %s", dresp.Status)
	}
	if _, code := getFleet(t, srv, "vce-east"); code != http.StatusNotFound {
		t.Fatalf("deleted fleet GET = %d, want 404", code)
	}
}

// TestDesiredStateRetriesThroughInjectedFault drives the acceptance e2e
// entirely over HTTP: a testbed fault injected via the fault endpoint
// defeats the first reconcile pass, the fleet reports ExecutionFailed, and
// clearing the fault lets the controller's backoff requeue converge the
// fleet with no further operator action.
func TestDesiredStateRetriesThroughInjectedFault(t *testing.T) {
	s, srv := testServer(t)

	fresp := postJSON(t, srv.URL+"/api/testbed/faults", map[string]any{
		"target": "*", "error_rate": 1,
	})
	fresp.Body.Close()
	if fresp.StatusCode != http.StatusOK {
		t.Fatalf("fault install status = %s", fresp.Status)
	}
	startReconciler(t, s)

	resp := postJSON(t, srv.URL+"/api/desired", map[string]any{
		"name": "vgw-all", "nf_type": "vGW", "sw_version": "v2",
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("apply status = %s", resp.Status)
	}

	// Phase 1: every change attempt fails against the faulted testbed.
	failed := waitFleet(t, srv, "vgw-all", func(f reconcile.Fleet) bool {
		c, ok := reconcile.GetCondition(f.Status.Conditions, reconcile.ConditionSynced)
		return ok && c.Status == reconcile.ConditionFalse && c.Reason == "ExecutionFailed"
	})
	if failed.Status.Applied != 0 || failed.Status.Failed == 0 {
		t.Fatalf("faulted status = %+v", failed.Status)
	}

	// Phase 2: clear the fault over HTTP; the requeued pass converges.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/api/testbed/faults", nil)
	cresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()
	waitFleet(t, srv, "vgw-all", func(f reconcile.Fleet) bool {
		return reconcile.ConditionIs(f.Status.Conditions, reconcile.ConditionSynced, reconcile.ConditionTrue)
	})
	for _, nf := range s.tb.All() {
		if nf.Type == "vGW" && nf.ActiveVersion() != "v2" {
			t.Fatalf("%s never converged: %s", nf.ID, nf.ActiveVersion())
		}
	}
}

// TestDesiredEndpointValidation pins the API's failure modes.
func TestDesiredEndpointValidation(t *testing.T) {
	_, srv := testServer(t)

	// A spec with no desired state is rejected.
	resp := postJSON(t, srv.URL+"/api/desired", map[string]any{
		"name": "empty", "nf_type": "vCE",
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("empty spec status = %s", resp.Status)
	}
	// Unknown fleet lookups and deletes are 404s.
	if _, code := getFleet(t, srv, "ghost"); code != http.StatusNotFound {
		t.Fatalf("unknown fleet GET = %d", code)
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/api/desired?name=ghost", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown fleet DELETE = %s", dresp.Status)
	}
	// A delete without a name is a 400; wrong methods are 405s.
	req, _ = http.NewRequest(http.MethodDelete, srv.URL+"/api/desired", nil)
	dresp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp2.Body.Close()
	if dresp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("nameless DELETE = %s", dresp2.Status)
	}
	rresp := postJSON(t, srv.URL+"/api/revisions", map[string]any{})
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /api/revisions = %s", rresp.Status)
	}
}

// TestRevisionsEmptyIsArray: a fresh daemon's journal, whole or filtered
// to an unknown fleet, answers the JSON array [] — the shape
// /api/desired already uses — rather than null.
func TestRevisionsEmptyIsArray(t *testing.T) {
	_, srv := testServer(t)
	for _, url := range []string{"/api/revisions", "/api/revisions?fleet=nope", "/api/desired"} {
		resp, err := http.Get(srv.URL + url)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || string(body) != "[]\n" {
			t.Fatalf("GET %s = %s %q, want 200 \"[]\\n\"", url, resp.Status, body)
		}
	}
}
