package main

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"cornet/internal/obs"
)

func TestHealthzEndpoint(t *testing.T) {
	s, srv := testServer(t)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %s", resp.Status)
	}
	var out struct {
		Status        string  `json:"status"`
		UptimeSeconds float64 `json:"uptime_seconds"`
		GoVersion     string  `json:"go_version"`
		TestbedVNFs   int     `json:"testbed_vnfs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Status != "ok" {
		t.Fatalf("healthz status field = %q", out.Status)
	}
	if out.UptimeSeconds < 0 || out.GoVersion == "" {
		t.Fatalf("healthz = %+v", out)
	}
	if out.TestbedVNFs != s.tb.Len() {
		t.Fatalf("testbed_vnfs = %d, want %d", out.TestbedVNFs, s.tb.Len())
	}
}

func TestMetricsEndpointExposesHTTPAndPlanFamilies(t *testing.T) {
	_, srv := testServer(t)
	// Drive one instrumented request so the HTTP series exist.
	if resp, err := http.Get(srv.URL + "/api/catalog"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE cornet_http_requests_total counter",
		`cornet_http_requests_total{route="/api/catalog"`,
		"# TYPE cornet_http_request_duration_seconds histogram",
		"# TYPE cornet_http_in_flight_requests gauge",
		// Registered by the core/orchestrator packages at init.
		"# TYPE cornet_plan_backend_total counter",
		"# TYPE cornet_bb_invocations_total counter",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, text)
		}
	}
	// cornet_plan_backend_total counts every plan solve; the family that
	// counted the same events by policy is gone.
	if strings.Contains(text, "cornet_plan_requests_total") {
		t.Fatal("metrics output still carries cornet_plan_requests_total")
	}
}

func TestRequestIDEchoedAndHonored(t *testing.T) {
	_, srv := testServer(t)
	req, err := http.NewRequest(http.MethodGet, srv.URL+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "req-test-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "req-test-42" {
		t.Fatalf("request id echoed = %q", got)
	}
	// Without a client-sent ID the server mints one.
	resp2, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.Header.Get("X-Request-ID") == "" {
		t.Fatal("no minted request id")
	}
}

// TestExecuteTraceInlinesPerBlockSpans checks ?trace=1 returns a span tree
// whose bb.* spans match the blocks the execution actually ran.
func TestExecuteTraceInlinesPerBlockSpans(t *testing.T) {
	_, srv := testServer(t)
	resp := postJSON(t, srv.URL+"/api/wf/deploy", map[string]any{
		"workflow": "software-upgrade", "nf_type": "vCE",
	})
	defer resp.Body.Close()
	var dep struct {
		API string `json:"api"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dep); err != nil {
		t.Fatal(err)
	}

	resp2 := postJSON(t, srv.URL+"/api/wf/execute?trace=1", map[string]any{
		"api": dep.API,
		"inputs": map[string]string{
			"instance": "vce-000", "sw_version": "v7", "prior_version": "v1",
		},
	})
	defer resp2.Body.Close()
	var exec struct {
		Status string `json:"status"`
		Logs   []struct {
			Block string
		}
		Trace *obs.SpanExport `json:"trace"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&exec); err != nil {
		t.Fatal(err)
	}
	if exec.Trace == nil {
		t.Fatal("no trace in response")
	}
	if exec.Trace.TraceID == "" {
		t.Fatal("trace has no trace id")
	}
	wf := exec.Trace.Find("wf.execute")
	if wf == nil {
		t.Fatalf("no wf.execute span: %+v", exec.Trace)
	}
	var spanBlocks []string
	for _, c := range wf.Children {
		if strings.HasPrefix(c.Name, "bb.") {
			spanBlocks = append(spanBlocks, strings.TrimPrefix(c.Name, "bb."))
		}
	}
	if len(spanBlocks) != len(exec.Logs) {
		t.Fatalf("trace has %d bb spans, execution ran %d blocks", len(spanBlocks), len(exec.Logs))
	}
	for i, l := range exec.Logs {
		if spanBlocks[i] != l.Block {
			t.Fatalf("span %d = %s, block log = %s", i, spanBlocks[i], l.Block)
		}
	}

	// Untraced responses carry no trace payload.
	resp3 := postJSON(t, srv.URL+"/api/wf/execute", map[string]any{
		"api": dep.API,
		"inputs": map[string]string{
			"instance": "vce-000", "sw_version": "v8", "prior_version": "v7",
		},
	})
	defer resp3.Body.Close()
	var untraced map[string]any
	if err := json.NewDecoder(resp3.Body).Decode(&untraced); err != nil {
		t.Fatal(err)
	}
	if _, ok := untraced["trace"]; ok {
		t.Fatal("untraced execute response includes a trace")
	}
}

func TestPlanTraceIncludesBackendSpans(t *testing.T) {
	_, srv := testServer(t)
	doc := `{
	  "scheduling_window": {"start": "2022-03-01 00:00:00", "end": "2022-03-15 00:00:00",
	    "granularity": {"metric":"day","value":1}},
	  "schedulable_attribute": "common_id",
	  "constraints": [
	    {"name": "concurrency", "base_attribute": "common_id", "default_capacity": 30}
	  ]
	}`
	resp, err := http.Post(srv.URL+"/api/plan?trace=1", "application/json", strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plan status = %s", resp.Status)
	}
	var out struct {
		Method string          `json:"method"`
		Trace  *obs.SpanExport `json:"trace"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Trace == nil {
		t.Fatal("no trace in plan response")
	}
	sp := out.Trace.Find("plan.solve")
	if sp == nil {
		t.Fatal("trace missing plan.solve span")
	}
	if sp.Attrs["backend"] != out.Method {
		t.Fatalf("plan.solve backend = %v, want %s", sp.Attrs["backend"], out.Method)
	}
	if out.Trace.Find("plan.engine") != nil || out.Trace.Find("plan.backend."+out.Method) != nil {
		t.Fatal("trace still carries the plan.engine / plan.backend.* spans")
	}
}

func TestPprofEndpoint(t *testing.T) {
	_, srv := testServer(t)
	resp, err := http.Get(srv.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof status = %s", resp.Status)
	}
}
