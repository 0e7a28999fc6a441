package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"testing"
	"time"

	"cornet/internal/inventory"
	"cornet/internal/kpigen"
	"cornet/internal/obs"
	"cornet/internal/obs/events"
	"cornet/internal/obs/slo"
	"cornet/internal/obs/tenants"
	"cornet/internal/orchestrator/resilience"
	"cornet/internal/testbed"
	"cornet/internal/verify/kpi"
	"cornet/internal/verify/verifier"
)

// planDoc is the minimal solver-path intent document the tests plan with.
const planDoc = `{
  "scheduling_window": {"start": "2022-03-01 00:00:00", "end": "2022-03-15 00:00:00",
    "granularity": {"metric":"day","value":1}},
  "schedulable_attribute": "common_id",
  "constraints": [
    {"name": "concurrency", "base_attribute": "common_id", "default_capacity": 30}
  ]
}`

// postWithHeaders posts a body with extra headers and returns the response.
func postWithHeaders(t *testing.T, url, body string, hdr map[string]string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestChangeTimelineAcrossFaultInjectedChange is the acceptance scenario:
// one operator-supplied change id threads a plan request, a fault-injected
// execution that retries and rolls back, and an in-process verifier run;
// the reconstructed timeline then contains events from admission, engine,
// orchestrator, and verifier.
func TestChangeTimelineAcrossFaultInjectedChange(t *testing.T) {
	s, srv := testServer(t)
	const changeID = "chg-e2e-rollback"

	// Plan under the change id (admission + engine events).
	resp := postWithHeaders(t, srv.URL+"/api/plan", planDoc, map[string]string{
		"X-Change-ID": changeID, "X-Tenant": "timeline-tenant",
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plan status = %s", resp.Status)
	}
	if got := resp.Header.Get("X-Change-ID"); got != changeID {
		t.Fatalf("plan X-Change-ID echo = %q", got)
	}
	var planOut struct {
		ChangeID string `json:"change_id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&planOut); err != nil {
		t.Fatal(err)
	}
	if planOut.ChangeID != changeID {
		t.Fatalf("plan change_id = %q", planOut.ChangeID)
	}

	// Fault-inject the target and execute with retry + rollback-on-exhausted
	// (orchestrator events: block.retry, block.failure_action, wf.rollback).
	s.f.Engine.Defaults = resilience.Policy{
		MaxAttempts: 2, OnExhausted: resilience.ActionRollback,
	}
	s.f.Engine.Sleep = func(context.Context, time.Duration) error { return nil }
	var engineLog bytes.Buffer
	s.f.Engine.Log = obs.NewLogger(&engineLog, slog.LevelInfo, "json")
	if err := s.tb.SetFault("vce-000", testbed.FaultSpec{ErrorRate: 1}); err != nil {
		t.Fatal(err)
	}
	dresp := postJSON(t, srv.URL+"/api/wf/deploy", map[string]any{
		"workflow": "software-upgrade", "nf_type": "vCE",
	})
	var dep struct {
		API string `json:"api"`
	}
	if err := json.NewDecoder(dresp.Body).Decode(&dep); err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	body, _ := json.Marshal(map[string]any{
		"api": dep.API,
		"inputs": map[string]string{
			"instance": "vce-000", "sw_version": "v7", "prior_version": "v1",
		},
	})
	eresp := postWithHeaders(t, srv.URL+"/api/wf/execute", string(body), map[string]string{
		"X-Change-ID": changeID, "X-Tenant": "timeline-tenant",
	})
	defer eresp.Body.Close()
	var execOut struct {
		Status   string `json:"status"`
		ChangeID string `json:"change_id"`
	}
	if err := json.NewDecoder(eresp.Body).Decode(&execOut); err != nil {
		t.Fatal(err)
	}
	if execOut.Status != "rolledback" || execOut.ChangeID != changeID {
		t.Fatalf("execute = %+v, want rolledback under %s", execOut, changeID)
	}
	// Every log record of that execution can be grepped by the change id.
	records := strings.Split(strings.TrimSpace(engineLog.String()), "\n")
	if len(records) < 4 {
		t.Fatalf("engine logged %d records for a retried, rolled-back execution:\n%s", len(records), engineLog.String())
	}
	for _, rec := range records {
		if !strings.Contains(rec, `"change_id":"`+changeID+`"`) || !strings.Contains(rec, `"tenant":"timeline-tenant"`) {
			t.Errorf("log record without the request's change id and tenant: %s", rec)
		}
	}

	// Verify the change in-process under the same id (verifier event).
	runVerifier(t, changeID)

	// The reconstructed timeline spans all four subsystems.
	tresp, err := http.Get(srv.URL + "/api/changes/" + changeID + "/timeline")
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("timeline status = %s", tresp.Status)
	}
	var tl struct {
		ChangeID string         `json:"change_id"`
		Start    time.Time      `json:"start"`
		End      time.Time      `json:"end"`
		Sources  []string       `json:"sources"`
		Events   []events.Event `json:"events"`
	}
	if err := json.NewDecoder(tresp.Body).Decode(&tl); err != nil {
		t.Fatal(err)
	}
	if tl.ChangeID != changeID || len(tl.Events) == 0 || tl.End.Before(tl.Start) {
		t.Fatalf("timeline = %+v", tl)
	}
	srcs := map[string]bool{}
	for _, s := range tl.Sources {
		srcs[s] = true
	}
	for _, want := range []string{"admission", "engine", "orchestrator", "verifier"} {
		if !srcs[want] {
			t.Fatalf("timeline sources %v missing %q", tl.Sources, want)
		}
	}
	types := map[events.Type]bool{}
	for _, e := range tl.Events {
		if e.ChangeID != changeID {
			t.Fatalf("foreign event in timeline: %+v", e)
		}
		types[e.Type] = true
	}
	for _, want := range []events.Type{events.TypeBlockRetry, events.TypeRollback, events.TypeWfEnd, events.TypePlanServed} {
		if !types[want] {
			t.Fatalf("timeline types %v missing %q", types, want)
		}
	}

	// Unknown change ids are a 404.
	nf, err := http.Get(srv.URL + "/api/changes/chg-never-seen/timeline")
	if err != nil {
		t.Fatal(err)
	}
	nf.Body.Close()
	if nf.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown timeline status = %s", nf.Status)
	}
}

// runVerifier runs a small in-process verification under the change id,
// as an operator-side post-change check would.
func runVerifier(t *testing.T, changeID string) {
	t.Helper()
	reg := kpi.NewRegistry()
	if _, err := reg.Define("drop-rate", kpi.Scorecard, "100 * drops / calls", false, 0); err != nil {
		t.Fatal(err)
	}
	ids := []string{"s0", "s1", "c0", "c1"}
	ds, err := kpigen.Generate(ids, kpigen.Config{
		Seed: 7, Days: 10, SamplesPerDay: 24,
		Counters: []kpigen.CounterSpec{
			{Name: "drops", Base: 10, DailyAmplitude: 0.2, Noise: 0.1},
			{Name: "calls", Base: 1000, DailyAmplitude: 0.3, Noise: 0.05},
		},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	inv := inventory.New()
	for _, id := range ids {
		inv.MustAdd(&inventory.Element{ID: id, Attributes: map[string]string{}})
	}
	v := &verifier.Verifier{Registry: reg, Data: ds, Inv: inv}
	ctx := obs.WithChangeID(context.Background(), changeID)
	if _, err := v.VerifyContext(ctx, verifier.Rule{
		Name: "post-change", KPIs: []string{"drop-rate"},
		Timescales: []int{24}, PreWindow: 48,
	}, []string{"s0", "s1"}, map[string]int{"s0": 120, "s1": 120}, []string{"c0", "c1"}); err != nil {
		t.Fatal(err)
	}
}

func TestEventsEndpointOverHTTP(t *testing.T) {
	_, srv := testServer(t)
	resp := postWithHeaders(t, srv.URL+"/api/plan", planDoc, map[string]string{"X-Tenant": "events-tenant"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plan status = %s", resp.Status)
	}
	eresp, err := http.Get(srv.URL + "/api/events?type=plan.served&tenant=events-tenant")
	if err != nil {
		t.Fatal(err)
	}
	defer eresp.Body.Close()
	var evs []events.Event
	if err := json.NewDecoder(eresp.Body).Decode(&evs); err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 || evs[0].Type != events.TypePlanServed {
		t.Fatalf("events = %+v", evs)
	}
	// Unknown query parameters fail loudly.
	bad, err := http.Get(srv.URL + "/api/events?tennant=x")
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad filter status = %s", bad.Status)
	}
}

func TestSLOEndpointReportsBurn(t *testing.T) {
	_, srv := testServer(t)
	resp := postWithHeaders(t, srv.URL+"/api/plan", planDoc, map[string]string{"X-Tenant": "slo-tenant"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plan status = %s", resp.Status)
	}
	// The SLO tracker feeds from the journal asynchronously: poll until the
	// admission objective has folded the request in.
	deadline := time.Now().Add(5 * time.Second)
	for {
		sresp, err := http.Get(srv.URL + "/api/slo")
		if err != nil {
			t.Fatal(err)
		}
		var st []slo.Status
		err = json.NewDecoder(sresp.Body).Decode(&st)
		sresp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		byName := map[string]slo.Status{}
		for _, s := range st {
			byName[s.Name] = s
		}
		adm, ok := byName[slo.ObjAdmission]
		if ok && adm.Good >= 1 {
			if len(adm.Burn) != 2 || adm.Compliance != 1 || adm.BudgetRemaining != 1 {
				t.Fatalf("admission slo = %+v", adm)
			}
			if lat := byName[slo.ObjPlanLatency]; lat.Good+lat.Bad < 1 {
				t.Fatalf("plan latency slo unfed: %+v", lat)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slo feed never applied the request: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The scrape path refreshes and exports the cornet_slo_* gauges.
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	text, _ := io.ReadAll(mresp.Body)
	for _, want := range []string{"cornet_slo_compliance{", "cornet_slo_burn_rate{", "cornet_build_info{"} {
		if !bytes.Contains(text, []byte(want)) {
			t.Fatalf("metrics exposition missing %s", want)
		}
	}
}

// The SLO feed must not drink from the firehose: a burst of events the
// tracker does not read may not cost it one it does.
func TestSLOFeedSubscribesToWhatItReads(t *testing.T) {
	tr, sub, stop := newSLOTracker()
	defer stop()
	const hits, served = 10000, 100 // served fits the feed's 256-slot buffer
	for i := 0; i < hits; i++ {
		events.Default.Publish(events.Event{Type: events.TypeCacheHit, Source: "test",
			Fields: map[string]any{"key": "k"}})
		if i%(hits/served) == 0 {
			events.Default.Publish(events.Event{Type: events.TypePlanServed, Source: "test",
				Fields: map[string]any{"wall_ns": int64(time.Millisecond)}})
		}
	}
	if got := sub.Dropped(); got != 0 {
		t.Fatalf("feed dropped %d events", got)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		var adm slo.Status
		for _, st := range tr.Status() {
			if st.Name == slo.ObjAdmission {
				adm = st
			}
		}
		if adm.Good == served {
			return
		}
		if adm.Good > served || time.Now().After(deadline) {
			t.Fatalf("admission objective saw %d plan.served events, want %d", adm.Good, served)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestTenantsEndpointAttribution(t *testing.T) {
	_, srv := testServer(t)
	// alpha pays for the solve; beta rides the plan cache for free.
	r1 := postWithHeaders(t, srv.URL+"/api/plan", planDoc, map[string]string{"X-Tenant": "acct-alpha"})
	r1.Body.Close()
	r2 := postWithHeaders(t, srv.URL+"/api/plan", planDoc, map[string]string{"X-Tenant": "acct-beta"})
	r2.Body.Close()
	if r1.StatusCode != http.StatusOK || r2.StatusCode != http.StatusOK {
		t.Fatalf("plan statuses = %s, %s", r1.Status, r2.Status)
	}
	tresp, err := http.Get(srv.URL + "/api/tenants")
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	var usage []tenants.Usage
	if err := json.NewDecoder(tresp.Body).Decode(&usage); err != nil {
		t.Fatal(err)
	}
	byTenant := map[string]tenants.Usage{}
	for _, u := range usage {
		byTenant[u.Tenant] = u
	}
	alpha, beta := byTenant["acct-alpha"], byTenant["acct-beta"]
	if alpha.PlanRequests != 1 || alpha.CacheMisses != 1 || alpha.SolveWallNS <= 0 {
		t.Fatalf("alpha = %+v, want 1 solved request with wall time", alpha)
	}
	if beta.PlanRequests != 1 || beta.CacheHits != 1 || beta.SolveWallNS != 0 {
		t.Fatalf("beta = %+v, want 1 free cache hit", beta)
	}
}

func TestVersionEndpoint(t *testing.T) {
	_, srv := testServer(t)
	resp, err := http.Get(srv.URL + "/version")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Version   string `json:"version"`
		GoVersion string `json:"go_version"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Version != version || !strings.HasPrefix(out.GoVersion, "go") {
		t.Fatalf("version = %+v", out)
	}
}
