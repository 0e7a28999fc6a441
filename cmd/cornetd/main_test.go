package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cornet/internal/catalog"
	composeserve "cornet/internal/compose/serve"
	"cornet/internal/core"
	"cornet/internal/inventory"
	"cornet/internal/netgen"
	planserve "cornet/internal/plan/serve"
	"cornet/internal/testbed"
	"cornet/internal/workflow"
)

func testServer(t *testing.T) (*server, *httptest.Server) {
	return testServerCompose(t, composeserve.Settings{Window: 40 * time.Millisecond})
}

// testServerCompose builds a test server with explicit composition
// settings (the compose e2e tests need tailored windows and strategies).
func testServerCompose(t *testing.T, compCfg composeserve.Settings) (*server, *httptest.Server) {
	t.Helper()
	tb := testbed.New(1)
	testbed.PopulateVNFs(tb, 2)
	net, err := netgen.Cellular(netgen.DefaultCellular(120, 1))
	if err != nil {
		t.Fatal(err)
	}
	f := core.New(map[string]catalog.ImplKind{
		"vCE": catalog.ImplScript, "vGW": catalog.ImplAnsible, "portal": catalog.ImplAnsible,
		"CPE": catalog.ImplAnsible, "vCOM": catalog.ImplAnsible, "vRAR": catalog.ImplAnsible,
	}, core.WithInvoker(tb))
	s := newServer(f, tb, net, 0, planserve.Config{}, compCfg, nil)
	srv := httptest.NewServer(newMux(s))
	t.Cleanup(srv.Close)
	t.Cleanup(s.planSrv.Stop)
	t.Cleanup(s.comp.Stop)
	t.Cleanup(s.sloStop)
	return s, srv
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestCatalogEndpoint(t *testing.T) {
	_, srv := testServer(t)
	resp, err := http.Get(srv.URL + "/api/catalog")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var blocks []catalog.BuildingBlock
	if err := json.NewDecoder(resp.Body).Decode(&blocks); err != nil {
		t.Fatal(err)
	}
	if len(blocks) < 17 {
		t.Fatalf("catalog size = %d", len(blocks))
	}
}

func TestDeployAndExecuteOverHTTP(t *testing.T) {
	_, srv := testServer(t)

	// Deploy the library software-upgrade workflow for vCE.
	resp := postJSON(t, srv.URL+"/api/wf/deploy", map[string]any{
		"workflow": "software-upgrade", "nf_type": "vCE",
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deploy status = %s", resp.Status)
	}
	var dep workflow.Deployment
	if err := json.NewDecoder(resp.Body).Decode(&dep); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(dep.API, "/api/wf/software-upgrade/vCE/") {
		t.Fatalf("API = %s", dep.API)
	}

	// Execute it against a testbed vCE.
	resp2 := postJSON(t, srv.URL+"/api/wf/execute", map[string]any{
		"api": dep.API,
		"inputs": map[string]string{
			"instance": "vce-000", "sw_version": "v7", "prior_version": "v1",
		},
	})
	defer resp2.Body.Close()
	var exec struct {
		Status string
		Logs   []struct{ Block, Status string }
	}
	if err := json.NewDecoder(resp2.Body).Decode(&exec); err != nil {
		t.Fatal(err)
	}
	if exec.Status != "success" || len(exec.Logs) != 3 {
		t.Fatalf("exec = %+v", exec)
	}

	// Unknown deployment is a 404.
	resp3 := postJSON(t, srv.URL+"/api/wf/execute", map[string]any{"api": "/ghost"})
	defer resp3.Body.Close()
	if resp3.StatusCode != http.StatusNotFound {
		t.Fatalf("ghost execute status = %s", resp3.Status)
	}
}

func TestDeployCustomWorkflowJSON(t *testing.T) {
	_, srv := testServer(t)
	// A custom design submitted as raw JSON (the designer UI path).
	custom := workflow.DownloadInstall()
	resp := postJSON(t, srv.URL+"/api/wf/deploy", map[string]any{
		"workflow": custom, "nf_type": "vGW",
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("custom deploy status = %s", resp.Status)
	}
	// A broken design is rejected with 422.
	broken := workflow.New("broken")
	broken.AddNode(workflow.Node{ID: "start", Kind: workflow.Start})
	resp2 := postJSON(t, srv.URL+"/api/wf/deploy", map[string]any{
		"workflow": broken, "nf_type": "vGW",
	})
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("broken deploy status = %s", resp2.Status)
	}
	// An unknown library name is a 400.
	resp3 := postJSON(t, srv.URL+"/api/wf/deploy", map[string]any{
		"workflow": "mystery-workflow", "nf_type": "vGW",
	})
	defer resp3.Body.Close()
	if resp3.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown library status = %s", resp3.Status)
	}
}

func TestPlanEndpoint(t *testing.T) {
	s, srv := testServer(t)
	edge := s.net.Inv.Filter(func(e *inventory.Element) bool {
		layer, _ := e.Attr(inventory.AttrLayer)
		return layer == "edge"
	})
	doc := `{
	  "scheduling_window": {"start": "2022-03-01 00:00:00", "end": "2022-03-15 00:00:00",
	    "granularity": {"metric":"day","value":1}},
	  "schedulable_attribute": "common_id",
	  "constraints": [
	    {"name": "concurrency", "base_attribute": "common_id", "default_capacity": 30}
	  ]
	}`
	resp, err := http.Post(srv.URL+"/api/plan", "application/json", strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plan status = %s", resp.Status)
	}
	var out struct {
		Method     string
		Makespan   int
		Assignment map[string]int
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Method != "solver" || len(out.Assignment) != len(edge) {
		t.Fatalf("plan = method %s, %d assigned (want %d)", out.Method, len(out.Assignment), len(edge))
	}
	// Bad intent is a 422.
	resp2, err := http.Post(srv.URL+"/api/plan", "application/json", strings.NewReader(`{"nope": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("bad plan status = %s", resp2.Status)
	}
}

func TestPlanEndpointParallelism(t *testing.T) {
	_, srv := testServer(t)
	doc := `{
	  "scheduling_window": {"start": "2022-03-01 00:00:00", "end": "2022-03-15 00:00:00",
	    "granularity": {"metric":"day","value":1}},
	  "schedulable_attribute": "common_id",
	  "constraints": [
	    {"name": "concurrency", "base_attribute": "common_id", "default_capacity": 30}
	  ]
	}`
	resp, err := http.Post(srv.URL+"/api/plan?parallelism=2", "application/json", strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plan status = %s", resp.Status)
	}
	var out struct {
		Stats []struct {
			Backend string `json:"backend"`
			Workers int    `json:"workers"`
		}
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Stats) == 0 {
		t.Fatal("no backend stats in plan response")
	}
	for _, st := range out.Stats {
		if st.Workers <= 0 {
			t.Fatalf("backend %s reported workers = %d, want > 0", st.Backend, st.Workers)
		}
	}
	// A malformed parallelism value is a 400.
	resp2, err := http.Post(srv.URL+"/api/plan?parallelism=banana", "application/json", strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad parallelism status = %s", resp2.Status)
	}
}

func TestMethodGuards(t *testing.T) {
	_, srv := testServer(t)
	for _, path := range []string{"/api/wf/deploy", "/api/wf/execute", "/api/plan"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET %s = %s", path, resp.Status)
		}
	}
}

func TestPlanEndpointValidation(t *testing.T) {
	_, srv := testServer(t)
	doc := `{
	  "scheduling_window": {"start": "2022-03-01 00:00:00", "end": "2022-03-15 00:00:00",
	    "granularity": {"metric":"day","value":1}},
	  "schedulable_attribute": "common_id",
	  "constraints": [
	    {"name": "concurrency", "base_attribute": "common_id", "default_capacity": 30}
	  ]
	}`
	cases := []struct {
		name, query, body string
		status            int
	}{
		{"unknown param", "?parallellism=8", doc, http.StatusBadRequest},
		{"duplicated param", "?backend=auto&backend=solver", doc, http.StatusBadRequest},
		{"zero timeout", "?timeout=0s", doc, http.StatusBadRequest},
		{"negative timeout", "?timeout=-1s", doc, http.StatusBadRequest},
		{"parallelism over cap", "?parallelism=300", doc, http.StatusBadRequest},
		{"bad tenant", "?tenant=no/slash", doc, http.StatusBadRequest},
		{"data after the document", "", doc + " trailing {", http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		resp, err := http.Post(srv.URL+"/api/plan"+tc.query, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status = %s, want %d", tc.name, resp.Status, tc.status)
		}
	}
	// A bad X-Tenant header is also a 400, even with a clean query.
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/api/plan", strings.NewReader(doc))
	req.Header.Set("X-Tenant", strings.Repeat("x", 65))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("long tenant header status = %s", resp.Status)
	}
	// An oversized intent document is a 413.
	big := bytes.Repeat([]byte{'x'}, (4<<20)+1)
	resp2, err := http.Post(srv.URL+"/api/plan", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body status = %s", resp2.Status)
	}
}

func TestPlanEndpointCacheAndTenant(t *testing.T) {
	_, srv := testServer(t)
	doc := `{
	  "scheduling_window": {"start": "2022-03-01 00:00:00", "end": "2022-03-15 00:00:00",
	    "granularity": {"metric":"day","value":1}},
	  "schedulable_attribute": "common_id",
	  "constraints": [
	    {"name": "concurrency", "base_attribute": "common_id", "default_capacity": 30}
	  ]
	}`
	post := func(tenant string) (int, struct {
		Tenant string `json:"tenant"`
		Cache  struct {
			Hit bool   `json:"hit"`
			Key string `json:"key"`
		} `json:"cache"`
	}) {
		req, _ := http.NewRequest(http.MethodPost, srv.URL+"/api/plan?backend=solver", strings.NewReader(doc))
		if tenant != "" {
			req.Header.Set("X-Tenant", tenant)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out struct {
			Tenant string `json:"tenant"`
			Cache  struct {
				Hit bool   `json:"hit"`
				Key string `json:"key"`
			} `json:"cache"`
		}
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode, out
	}
	status, first := post("ops-team")
	if status != http.StatusOK {
		t.Fatalf("cold plan status = %d", status)
	}
	if first.Tenant != "ops-team" || first.Cache.Hit || first.Cache.Key == "" {
		t.Fatalf("cold plan = %+v", first)
	}
	// The identical intent from another tenant hits the shared cache.
	status, second := post("")
	if status != http.StatusOK {
		t.Fatalf("hot plan status = %d", status)
	}
	if second.Tenant != "default" || !second.Cache.Hit || second.Cache.Key != first.Cache.Key {
		t.Fatalf("hot plan = %+v (cold key %s)", second, first.Cache.Key)
	}
}

func TestPlanEndpointShedsWithRetryAfter(t *testing.T) {
	tb := testbed.New(1)
	testbed.PopulateVNFs(tb, 2)
	net, err := netgen.Cellular(netgen.DefaultCellular(120, 1))
	if err != nil {
		t.Fatal(err)
	}
	f := core.New(map[string]catalog.ImplKind{"vCE": catalog.ImplScript}, core.WithInvoker(tb))
	s := newServer(f, tb, net, 0, planserve.Config{
		Admission: planserve.AdmitConfig{Workers: 1, QueueLimit: 1},
	}, composeserve.Settings{}, nil)
	srv := httptest.NewServer(newMux(s))
	t.Cleanup(srv.Close)
	t.Cleanup(s.planSrv.Stop)

	// Distinct capacities defeat the cache, so every request needs a solve;
	// with one worker and a one-deep queue most of a 12-way burst must shed.
	const n = 12
	type result struct {
		status     int
		retryAfter string
	}
	results := make(chan result, n)
	for i := 0; i < n; i++ {
		go func(capn int) {
			doc := fmt.Sprintf(`{
			  "scheduling_window": {"start": "2022-03-01 00:00:00", "end": "2022-03-15 00:00:00",
			    "granularity": {"metric":"day","value":1}},
			  "schedulable_attribute": "common_id",
			  "constraints": [
			    {"name": "concurrency", "base_attribute": "common_id", "default_capacity": %d}
			  ]
			}`, 20+capn)
			resp, err := http.Post(srv.URL+"/api/plan?backend=solver", "application/json", strings.NewReader(doc))
			if err != nil {
				t.Error(err)
				results <- result{}
				return
			}
			resp.Body.Close()
			results <- result{resp.StatusCode, resp.Header.Get("Retry-After")}
		}(i)
	}
	served, shed := 0, 0
	for i := 0; i < n; i++ {
		r := <-results
		switch r.status {
		case http.StatusOK:
			served++
		case http.StatusServiceUnavailable:
			shed++
			if r.retryAfter == "" {
				t.Error("503 without Retry-After header")
			}
		default:
			t.Errorf("unexpected status %d", r.status)
		}
	}
	if served == 0 || shed == 0 {
		t.Fatalf("served=%d shed=%d, want both under overload", served, shed)
	}
}
