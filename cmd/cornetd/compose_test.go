package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"testing"
	"time"

	composeserve "cornet/internal/compose/serve"
	"cornet/internal/core"
	"cornet/internal/obs/events"
	"cornet/internal/workflow"
)

// composedResp mirrors executeComposed's success payload.
type composedResp struct {
	Status      string   `json:"status"`
	ChangeID    string   `json:"change_id"`
	ComposedID  string   `json:"composed_id"`
	Members     []string `json:"members"`
	Strategy    string   `json:"strategy"`
	Parallelism string   `json:"parallelism"`
	Makespan    int      `json:"makespan"`
	CacheHit    bool     `json:"cache_hit"`
	Executions  []struct {
		Instance string `json:"instance"`
		Timeslot int    `json:"timeslot"`
		Status   string `json:"status"`
		Error    string `json:"error,omitempty"`
	} `json:"executions"`
	Unscheduled []string `json:"unscheduled,omitempty"`
}

// conflictResp mirrors the 409 payload.
type conflictResp struct {
	Error     string `json:"error"`
	ChangeID  string `json:"change_id"`
	Requeued  int    `json:"requeued,omitempty"`
	Diagnosis struct {
		Strategy    string `json:"strategy"`
		Granularity string `json:"granularity"`
		Collisions  []struct {
			Kind      string   `json:"kind"`
			Path      string   `json:"path"`
			OtherPath string   `json:"other_path,omitempty"`
			Attr      string   `json:"attr,omitempty"`
			Changes   []string `json:"changes"`
		} `json:"collisions"`
		Suggestion string `json:"suggestion"`
	} `json:"diagnosis"`
}

func deployWorkflow(t *testing.T, srv string, name, nfType string) string {
	t.Helper()
	resp := postJSON(t, srv+"/api/wf/deploy", map[string]any{
		"workflow": name, "nf_type": nfType,
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deploy status = %s", resp.Status)
	}
	var dep workflow.Deployment
	if err := json.NewDecoder(resp.Body).Decode(&dep); err != nil {
		t.Fatal(err)
	}
	return dep.API
}

// composePost submits a composed execution with explicit change id and
// tenant headers.
func composePost(t *testing.T, srv, changeID, tenant string, body map[string]any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, srv+"/api/wf/execute", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Change-ID", changeID)
	req.Header.Set("X-Tenant", tenant)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeComposed(t *testing.T, resp *http.Response) composedResp {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("composed execute status = %s", resp.Status)
	}
	var out composedResp
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// submitPair fires two composed submissions into one window (the second
// only after the first has joined) and returns both responses.
func submitPair(t *testing.T, s *server, srv string,
	first, second func() *http.Response) (a, b *http.Response) {
	t.Helper()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); a = first() }()
	waitPending(t, s, 1)
	wg.Add(1)
	go func() { defer wg.Done(); b = second() }()
	wg.Wait()
	return a, b
}

func waitPending(t *testing.T, s *server, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s.comp.Pending() >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("composer never reached %d pending members", n)
}

// directUnionMakespan plans the two-element union scope directly on a
// fresh server (cold cache) — the reference cost composed schedules must
// match.
func directUnionMakespan(t *testing.T, ids []string) int {
	t.Helper()
	ref, _ := testServerCompose(t, composeserve.Settings{})
	served, err := ref.planSrv.Plan(context.Background(), "direct", ref.comp.Intent(),
		ref.fleetInv.Subset(ids), core.PlanOptions{RequireAll: true})
	if err != nil {
		t.Fatal(err)
	}
	return served.Result.Makespan
}

// TestComposeDisjointMerge is the acceptance path: two scope-disjoint
// workflows submitted concurrently, in either order, merge into one
// composed schedule whose cost equals planning their union directly. The
// first round is the cold one and waits out the window; the later rounds
// of the same two scopes, in both submission orders, take the early-seal
// path (the second join completes the remembered cohort) and must cost
// the same.
func TestComposeDisjointMerge(t *testing.T) {
	s, srv := testServerCompose(t, composeserve.Settings{Window: 250 * time.Millisecond})
	api := deployWorkflow(t, srv.URL, "software-upgrade", "vCE")
	want := directUnionMakespan(t, []string{"vce-000", "vce-001"})

	submit := func(changeID, tenant, instance string) func() *http.Response {
		return func() *http.Response {
			return composePost(t, srv.URL, changeID, tenant, map[string]any{
				"api":     api,
				"inputs":  map[string]string{"sw_version": "v7", "prior_version": "v1"},
				"compose": map[string]any{"scope": []string{instance}},
			})
		}
	}
	for round, tc := range []struct {
		order [2]string
		seal  string
	}{
		{[2]string{"vce-000", "vce-001"}, "window"},
		{[2]string{"vce-001", "vce-000"}, "cohort"},
		{[2]string{"vce-000", "vce-001"}, "cohort"},
	} {
		ids := []string{"chg-dm-a" + strconv.Itoa(round), "chg-dm-b" + strconv.Itoa(round)}
		ra, rb := submitPair(t, s, srv.URL,
			submit(ids[0], "team-a", tc.order[0]), submit(ids[1], "team-b", tc.order[1]))
		a, b := decodeComposed(t, ra), decodeComposed(t, rb)
		if a.ComposedID != b.ComposedID {
			t.Fatalf("round %d: different composed ids %q vs %q", round, a.ComposedID, b.ComposedID)
		}
		if len(a.Members) != 2 {
			t.Fatalf("round %d: members = %v", round, a.Members)
		}
		if a.Makespan != want || b.Makespan != want {
			t.Fatalf("round %d: composed makespan %d/%d != direct union %d", round, a.Makespan, b.Makespan, want)
		}
		if a.Strategy != "subtree" || a.Parallelism != "full" {
			t.Fatalf("round %d: strategy/parallelism = %s/%s", round, a.Strategy, a.Parallelism)
		}
		for _, m := range []composedResp{a, b} {
			if m.Status != "composed" || len(m.Executions) != 1 || m.Executions[0].Status != "success" {
				t.Fatalf("round %d: member %s = %+v", round, m.ChangeID, m)
			}
		}
		merged := events.Default.Query(events.Filter{
			ChangeID: a.ComposedID, Types: []events.Type{events.TypeComposeMerged},
		})
		if len(merged) != 1 || merged[0].Fields["seal"] != tc.seal {
			t.Fatalf("round %d: compose.merged events %+v, want one sealed by %q", round, merged, tc.seal)
		}
		if _, ok := merged[0].Fields["waited_ms"].(float64); !ok {
			t.Fatalf("round %d: compose.merged carries no waited_ms: %+v", round, merged[0].Fields)
		}
	}
}

// TestComposeConflictRejected asserts a colliding submission gets a 409
// naming the colliding node and the refusing strategy, while the first
// change still completes.
func TestComposeConflictRejected(t *testing.T) {
	s, srv := testServerCompose(t, composeserve.Settings{Window: 250 * time.Millisecond})
	api := deployWorkflow(t, srv.URL, "software-upgrade", "vCE")

	ra, rb := submitPair(t, s, srv.URL,
		func() *http.Response {
			return composePost(t, srv.URL, "chg-cr-a", "team-a", map[string]any{
				"api":     api,
				"inputs":  map[string]string{"sw_version": "v7", "prior_version": "v1"},
				"compose": map[string]any{"scope": []string{"vce-000"}},
			})
		},
		func() *http.Response {
			return composePost(t, srv.URL, "chg-cr-b", "team-b", map[string]any{
				"api":     api,
				"inputs":  map[string]string{"sw_version": "v9", "prior_version": "v1"},
				"compose": map[string]any{"scope": []string{"vce-000"}, "on_conflict": "reject"},
			})
		})
	a := decodeComposed(t, ra)
	if a.Status != "composed" {
		t.Fatalf("first change = %+v", a)
	}
	defer rb.Body.Close()
	if rb.StatusCode != http.StatusConflict {
		t.Fatalf("conflicting submit status = %s, want 409", rb.Status)
	}
	var c conflictResp
	if err := json.NewDecoder(rb.Body).Decode(&c); err != nil {
		t.Fatal(err)
	}
	if c.Diagnosis.Strategy != "subtree" || c.Diagnosis.Granularity != "subtree" {
		t.Fatalf("diagnosis strategy = %+v", c.Diagnosis)
	}
	if len(c.Diagnosis.Collisions) == 0 {
		t.Fatal("no collisions in diagnosis")
	}
	col := c.Diagnosis.Collisions[0]
	if col.Path != "east/vce-000" || col.Kind != "node" {
		t.Fatalf("collision = %+v", col)
	}
	if len(col.Changes) != 2 || col.Changes[0] != "chg-cr-a" || col.Changes[1] != "chg-cr-b" {
		t.Fatalf("collision changes = %v", col.Changes)
	}
	if c.Diagnosis.Suggestion == "" {
		t.Fatal("empty suggestion")
	}
}

// TestComposeQueueMode asserts a conflicting queue-mode submission parks
// behind the open generation and completes in the next one.
func TestComposeQueueMode(t *testing.T) {
	s, srv := testServerCompose(t, composeserve.Settings{Window: 250 * time.Millisecond})
	api := deployWorkflow(t, srv.URL, "software-upgrade", "vCE")

	ra, rb := submitPair(t, s, srv.URL,
		func() *http.Response {
			return composePost(t, srv.URL, "chg-qm-a", "team-a", map[string]any{
				"api":     api,
				"inputs":  map[string]string{"sw_version": "v7", "prior_version": "v1"},
				"compose": map[string]any{"scope": []string{"vce-000"}},
			})
		},
		func() *http.Response {
			return composePost(t, srv.URL, "chg-qm-b", "team-b", map[string]any{
				"api":     api,
				"inputs":  map[string]string{"sw_version": "v9", "prior_version": "v7"},
				"compose": map[string]any{"scope": []string{"vce-000"}, "on_conflict": "queue"},
			})
		})
	a, b := decodeComposed(t, ra), decodeComposed(t, rb)
	if a.ComposedID == b.ComposedID {
		t.Fatalf("queued change landed in the same generation %q", a.ComposedID)
	}
	if b.Status != "composed" || len(b.Executions) != 1 {
		t.Fatalf("queued change = %+v", b)
	}
	queued := events.Default.Query(events.Filter{
		ChangeID: "chg-qm-b", Types: []events.Type{events.TypeComposeQueued},
	})
	if len(queued) == 0 {
		t.Fatal("no compose.queued event journaled for the queued change")
	}
}

// TestComposeAttributeGranularity asserts two changes sharing a node but
// writing different attributes compose under the attribute strategy, and
// the same attribute written differently is refused naming the attribute.
func TestComposeAttributeGranularity(t *testing.T) {
	s, srv := testServerCompose(t, composeserve.Settings{
		Strategy: "attribute", Window: 250 * time.Millisecond,
	})
	api := deployWorkflow(t, srv.URL, "software-upgrade", "vCE")

	submit := func(changeID string, attrs map[string]string) func() *http.Response {
		return func() *http.Response {
			return composePost(t, srv.URL, changeID, "team-"+changeID, map[string]any{
				"api":    api,
				"inputs": map[string]string{"sw_version": "v7", "prior_version": "v1"},
				"compose": map[string]any{
					"scope": []string{"vce-000"},
					"attrs": map[string]map[string]string{"vce-000": attrs},
				},
			})
		}
	}
	ra, rb := submitPair(t, s, srv.URL,
		submit("chg-at-a", map[string]string{"cfg_dns": "10.0.0.1"}),
		submit("chg-at-b", map[string]string{"cfg_mtu": "1400"}))
	a, b := decodeComposed(t, ra), decodeComposed(t, rb)
	if a.ComposedID != b.ComposedID || a.Parallelism != "none" {
		t.Fatalf("attribute-disjoint changes did not merge: %+v / %+v", a, b)
	}
	// Identical payloads (same api + inputs): the one execution serves both
	// members, and each sees it on its own response.
	for _, m := range []composedResp{a, b} {
		if len(m.Executions) != 1 || m.Executions[0].Status != "success" {
			t.Fatalf("member %s executions = %+v", m.ChangeID, m.Executions)
		}
	}

	rc, rd := submitPair(t, s, srv.URL,
		submit("chg-at-c", map[string]string{"cfg_mtu": "1400"}),
		submit("chg-at-d", map[string]string{"cfg_mtu": "9000"}))
	decodeComposed(t, rc)
	defer rd.Body.Close()
	if rd.StatusCode != http.StatusConflict {
		t.Fatalf("same-attribute conflict status = %s, want 409", rd.Status)
	}
	var c conflictResp
	if err := json.NewDecoder(rd.Body).Decode(&c); err != nil {
		t.Fatal(err)
	}
	if c.Diagnosis.Strategy != "attribute" {
		t.Fatalf("diagnosis = %+v", c.Diagnosis)
	}
	found := false
	for _, col := range c.Diagnosis.Collisions {
		if col.Kind == "attribute" && col.Attr == "cfg_mtu" && col.Path == "east/vce-000" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no attribute collision naming cfg_mtu: %+v", c.Diagnosis.Collisions)
	}
}

// TestComposeAttributeDistinctPayloads asserts that when two changes
// validly co-claim one node under the attribute strategy with *different*
// payloads (different workflow inputs), each member's own deployment and
// inputs execute — one dispatch per distinct payload, not one per node —
// and each member's timeline carries its own execution.
func TestComposeAttributeDistinctPayloads(t *testing.T) {
	s, srv := testServerCompose(t, composeserve.Settings{
		Strategy: "attribute", Window: 250 * time.Millisecond,
	})
	api := deployWorkflow(t, srv.URL, "software-upgrade", "vCE")

	// Unique ids keep the process-global journal from a previous run.
	suffix := strconv.FormatInt(time.Now().UnixNano(), 36)
	idA, idB := "chg-ap-a-"+suffix, "chg-ap-b-"+suffix
	submit := func(changeID, version string, attrs map[string]string) func() *http.Response {
		return func() *http.Response {
			return composePost(t, srv.URL, changeID, "team-"+changeID, map[string]any{
				"api":    api,
				"inputs": map[string]string{"sw_version": version, "prior_version": "v1"},
				"compose": map[string]any{
					"scope": []string{"vce-000"},
					"attrs": map[string]map[string]string{"vce-000": attrs},
				},
			})
		}
	}
	ra, rb := submitPair(t, s, srv.URL,
		submit(idA, "v7", map[string]string{"cfg_dns": "10.0.0.1"}),
		submit(idB, "v8", map[string]string{"cfg_mtu": "1400"}))
	a, b := decodeComposed(t, ra), decodeComposed(t, rb)
	if a.ComposedID != b.ComposedID {
		t.Fatalf("attribute-disjoint changes did not merge: %q vs %q", a.ComposedID, b.ComposedID)
	}
	for _, m := range []composedResp{a, b} {
		if m.Status != "composed" || len(m.Executions) != 1 || m.Executions[0].Status != "success" {
			t.Fatalf("member %s = %+v", m.ChangeID, m)
		}
	}
	// Distinct payloads mean each member ran its own workflow: both
	// timelines must carry their own wf.start, not just the first's.
	for _, id := range []string{idA, idB} {
		started := events.Default.Query(events.Filter{
			ChangeID: id, Types: []events.Type{events.TypeWfStart},
		})
		if len(started) == 0 {
			t.Fatalf("member %s has no wf.start on its timeline — its payload never executed", id)
		}
	}
}

// TestComposeTimelineLinks asserts member and composed change timelines
// cross-link through compose.merged events and that member executions
// journal under their own change ids.
func TestComposeTimelineLinks(t *testing.T) {
	s, srv := testServerCompose(t, composeserve.Settings{Window: 250 * time.Millisecond})
	api := deployWorkflow(t, srv.URL, "software-upgrade", "vCE")

	// The event journal is process-global; unique ids keep a -count=N rerun
	// from reading the previous run's timeline.
	idA := "chg-tl-a-" + strconv.FormatInt(time.Now().UnixNano(), 36)
	idB := "chg-tl-b-" + strconv.FormatInt(time.Now().UnixNano(), 36)
	ra, rb := submitPair(t, s, srv.URL,
		func() *http.Response {
			return composePost(t, srv.URL, idA, "team-a", map[string]any{
				"api":     api,
				"inputs":  map[string]string{"sw_version": "v7", "prior_version": "v1"},
				"compose": map[string]any{"scope": []string{"vce-000"}},
			})
		},
		func() *http.Response {
			return composePost(t, srv.URL, idB, "team-b", map[string]any{
				"api":     api,
				"inputs":  map[string]string{"sw_version": "v7", "prior_version": "v1"},
				"compose": map[string]any{"scope": []string{"vce-001"}},
			})
		})
	a := decodeComposed(t, ra)
	decodeComposed(t, rb)

	memberEvents := events.Default.Query(events.Filter{ChangeID: idA})
	var hasMerged, hasWfStart bool
	for _, e := range memberEvents {
		switch e.Type {
		case events.TypeComposeMerged:
			hasMerged = true
			if e.Fields["composed"] != a.ComposedID {
				t.Fatalf("member merge event links %v, want %s", e.Fields["composed"], a.ComposedID)
			}
		case events.TypeWfStart:
			hasWfStart = true
		}
	}
	if !hasMerged || !hasWfStart {
		t.Fatalf("member timeline missing compose.merged (%v) or wf.start (%v): %+v",
			hasMerged, hasWfStart, memberEvents)
	}
	composedEvents := events.Default.Query(events.Filter{
		ChangeID: a.ComposedID, Types: []events.Type{events.TypeComposeMerged},
	})
	if len(composedEvents) != 1 {
		t.Fatalf("composed timeline has %d compose.merged events, want 1", len(composedEvents))
	}
	members, _ := composedEvents[0].Fields["members"].([]string)
	if len(members) != 2 {
		t.Fatalf("composed merge event members = %v", composedEvents[0].Fields["members"])
	}

	resp, err := http.Get(srv.URL + "/api/changes/" + idA + "/timeline")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("timeline status = %s", resp.Status)
	}
}

// TestComposeScopeValidation covers the 4xx paths of the compose branch.
// One attribute-level change stays pending for the whole table (a window
// nobody else ends) so the last row can resubmit its id with other inputs.
func TestComposeScopeValidation(t *testing.T) {
	s, srv := testServerCompose(t, composeserve.Settings{Window: time.Minute})
	api := deployWorkflow(t, srv.URL, "software-upgrade", "vCE")
	mtu := map[string]any{
		"scope": []string{"vce-000"},
		"attrs": map[string]map[string]string{"vce-000": {"cfg_mtu": "1400"}},
	}
	body, _ := json.Marshal(map[string]any{
		"api": api, "inputs": map[string]string{"sw_version": "v6", "prior_version": "v1"}, "compose": mtu,
	})
	ctx, cancel := context.WithCancel(context.Background())
	withdrawn := make(chan struct{})
	go func() {
		defer close(withdrawn)
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/api/wf/execute", bytes.NewReader(body))
		req.Header.Set("X-Change-ID", "chg-sv-pending")
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	defer func() { cancel(); <-withdrawn }()
	waitPending(t, s, 1)

	cases := []struct {
		name     string
		changeID string
		compose  map[string]any
		status   int
	}{
		{"unknown element", "", map[string]any{"scope": []string{"ghost-999"}}, http.StatusUnprocessableEntity},
		{"empty scope", "", map[string]any{}, http.StatusUnprocessableEntity},
		{"unknown market", "", map[string]any{"markets": []string{"mars"}}, http.StatusUnprocessableEntity},
		{"attrs outside scope", "", map[string]any{
			"scope": []string{"vce-000"},
			"attrs": map[string]map[string]string{"vce-001": {"cfg_mtu": "1"}},
		}, http.StatusUnprocessableEntity},
		{"bad conflict mode", "", map[string]any{
			"scope": []string{"vce-000"}, "on_conflict": "explode",
		}, http.StatusBadRequest},
		{"pending id with a different payload", "chg-sv-pending", mtu, http.StatusUnprocessableEntity},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp := composePost(t, srv.URL, c.changeID, "", map[string]any{
				"api": api, "inputs": map[string]string{"sw_version": "v7", "prior_version": "v1"},
				"compose": c.compose,
			})
			defer resp.Body.Close()
			if resp.StatusCode != c.status {
				t.Fatalf("status = %s, want %d", resp.Status, c.status)
			}
		})
	}
}
