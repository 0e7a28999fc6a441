package testbed

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"cornet/internal/orchestrator"
	"cornet/internal/workflow"
)

func ctx() context.Context { return context.Background() }

func TestNFLifecycle(t *testing.T) {
	tb := New(1)
	tb.MustAdd(NewNF("vce-1", "vCE", "v1"))

	// Health check snapshots and succeeds.
	out, err := tb.Invoke(ctx(), "/api/bb/health-check/vCE", map[string]string{"instance": "vce-1"})
	if err != nil || out["status"] != "success" {
		t.Fatalf("health: %v %v", out, err)
	}
	// Upgrade activates v2.
	out, err = tb.Invoke(ctx(), "/api/bb/software-upgrade/vCE",
		map[string]string{"instance": "vce-1", "sw_version": "v2"})
	if err != nil || out["status"] != "success" {
		t.Fatalf("upgrade: %v %v", out, err)
	}
	nf, _ := tb.Get("vce-1")
	if nf.ActiveVersion() != "v2" || nf.PriorVersion() != "v1" {
		t.Fatalf("versions: active=%s prior=%s", nf.ActiveVersion(), nf.PriorVersion())
	}
	if nf.RebootCount() != 1 {
		t.Fatalf("reboots = %d", nf.RebootCount())
	}
	// Pre/post sees improved discards (0.6x) -> improvement.
	out, _ = tb.Invoke(ctx(), "/api/bb/pre-post-comparison", map[string]string{"instance": "vce-1"})
	if out["verdict"] != "improvement" {
		t.Fatalf("verdict = %v", out)
	}
	// Roll back restores v1.
	out, err = tb.Invoke(ctx(), "/api/bb/roll-back/vCE", map[string]string{"instance": "vce-1"})
	if err != nil || out["status"] != "success" {
		t.Fatalf("rollback: %v %v", out, err)
	}
	if nf.ActiveVersion() != "v1" {
		t.Fatalf("active after rollback = %s", nf.ActiveVersion())
	}
}

func TestRollbackWithoutPrior(t *testing.T) {
	tb := New(1)
	tb.MustAdd(NewNF("x", "vGW", "v1"))
	out, err := tb.Invoke(ctx(), "/api/bb/roll-back", map[string]string{"instance": "x"})
	if err != nil || out["status"] != "failure" {
		t.Fatalf("rollback: %v %v", out, err)
	}
}

func TestUnreachableSSHFailure(t *testing.T) {
	tb := New(1)
	nf := NewNF("vce-1", "vCE", "v1")
	tb.MustAdd(nf)
	nf.SetReachable(false)
	_, err := tb.Invoke(ctx(), "/api/bb/software-upgrade/vCE",
		map[string]string{"instance": "vce-1", "sw_version": "v2"})
	if err == nil || !strings.Contains(err.Error(), "ssh connectivity") {
		t.Fatalf("err = %v", err)
	}
	if nf.ActiveVersion() != "v1" {
		t.Fatal("upgrade applied while unreachable")
	}
}

func TestConfigChangeAndTraffic(t *testing.T) {
	tb := New(1)
	tb.MustAdd(NewNF("a", "vGW", "v1"))
	out, err := tb.Invoke(ctx(), "/api/bb/config-change",
		map[string]string{"instance": "a", "config": "mtu=9000, qos=gold"})
	if err != nil || out["status"] != "success" {
		t.Fatalf("config: %v %v", out, err)
	}
	nf, _ := tb.Get("a")
	if nf.Config("mtu") != "9000" || nf.Config("qos") != "gold" {
		t.Fatalf("config = %v %v", nf.Config("mtu"), nf.Config("qos"))
	}
	if _, err := tb.Invoke(ctx(), "/api/bb/config-change",
		map[string]string{"instance": "a", "config": "garbage"}); err == nil {
		t.Fatal("malformed config accepted")
	}
	if _, err := tb.Invoke(ctx(), "/api/bb/traffic-redirect", map[string]string{"instance": "a"}); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Invoke(ctx(), "/api/bb/traffic-restore", map[string]string{"instance": "a"}); err != nil {
		t.Fatal(err)
	}
	nf.SetReachable(false)
	if _, err := tb.Invoke(ctx(), "/api/bb/traffic-redirect", map[string]string{"instance": "a"}); err == nil {
		t.Fatal("traffic redirected on an unreachable NF")
	}
}

func TestInvokeErrors(t *testing.T) {
	tb := New(1)
	if _, err := tb.Invoke(ctx(), "/api/bb/health-check", map[string]string{"instance": "ghost"}); err == nil {
		t.Fatal("unknown instance accepted")
	}
	if _, err := tb.Invoke(ctx(), "/weird/path", nil); err == nil {
		t.Fatal("bad API accepted")
	}
	tb.MustAdd(NewNF("a", "vCE", "v1"))
	if _, err := tb.Invoke(ctx(), "/api/bb/optimization-solver", map[string]string{"instance": "a"}); err == nil {
		t.Fatal("unimplemented block accepted")
	}
	if _, err := tb.Invoke(ctx(), "/api/bb/software-upgrade",
		map[string]string{"instance": "a"}); err == nil {
		t.Fatal("upgrade without version accepted")
	}
	cctx, cancel := context.WithCancel(ctx())
	cancel()
	if _, err := tb.Invoke(cctx, "/api/bb/health-check", map[string]string{"instance": "a"}); err == nil {
		t.Fatal("cancelled context accepted")
	}
}

// End-to-end: the Fig. 4 workflow executed by the orchestrator against the
// testbed, including the rollback path after an injected degradation.
func TestWorkflowAgainstTestbed(t *testing.T) {
	tb := New(1)
	ids := PopulateVNFs(tb, 2)
	if tb.Len() != 12 || len(ids) != 12 {
		t.Fatalf("populate = %d", tb.Len())
	}
	dep, err := workflow.Deploy(workflow.SoftwareUpgrade(), "vCE",
		func(block, nfType string) (string, error) { return "/api/bb/" + block + "/" + nfType, nil })
	if err != nil {
		t.Fatal(err)
	}
	eng := orchestrator.NewEngine(tb)
	exec, err := eng.Execute(ctx(), dep, map[string]string{
		"instance": "vce-000", "sw_version": "v2", "prior_version": "v1",
	})
	if err != nil || exec.Status != orchestrator.StatusSuccess {
		t.Fatalf("exec: %v %v", exec.Status, err)
	}
	nf, _ := tb.Get("vce-000")
	if nf.ActiveVersion() != "v2" {
		t.Fatalf("version = %s", nf.ActiveVersion())
	}

	// Degradation path: snapshot via health check, inject a 3x discard
	// increase, and confirm the comparison block reports degradation.
	if _, err := tb.Invoke(ctx(), "/api/bb/health-check", map[string]string{"instance": "vce-001"}); err != nil {
		t.Fatal(err)
	}
	tb.MarkBadImage("v-bad", 3.0)
	if _, err := tb.Invoke(ctx(), "/api/bb/software-upgrade",
		map[string]string{"instance": "vce-001", "sw_version": "v-bad"}); err != nil {
		t.Fatal(err)
	}
	out, _ := tb.Invoke(ctx(), "/api/bb/pre-post-comparison", map[string]string{"instance": "vce-001"})
	if out["verdict"] != "degradation" {
		t.Fatalf("verdict = %v", out)
	}
}

// TestMemUtilSaturates upgrades one long-lived NF 20,000 times — past the
// ~14,000 at which 5 % compounding growth used to reach +Inf — and asserts
// the utilisation stays a finite percentage and the upgrade workflow still
// succeeds on that instance.
func TestMemUtilSaturates(t *testing.T) {
	tb := New(1)
	tb.MustAdd(NewNF("vce-000", "vCE", "v0"))
	for i := 1; i <= 20000; i++ {
		if _, err := tb.Invoke(ctx(), "/api/bb/software-upgrade",
			map[string]string{"instance": "vce-000", "sw_version": "v" + strconv.Itoa(i%2)}); err != nil {
			t.Fatal(err)
		}
	}
	dep, err := workflow.Deploy(workflow.SoftwareUpgrade(), "vCE",
		func(block, nfType string) (string, error) { return "/api/bb/" + block + "/" + nfType, nil })
	if err != nil {
		t.Fatal(err)
	}
	exec, err := orchestrator.NewEngine(tb).Execute(ctx(), dep, map[string]string{
		"instance": "vce-000", "sw_version": "v-next", "prior_version": "v0",
	})
	if err != nil || exec.Status != orchestrator.StatusSuccess {
		t.Fatalf("exec after 20000 upgrades: %v %v", exec.Status, err)
	}
}

func TestHTTPHandler(t *testing.T) {
	tb := New(1)
	tb.MustAdd(NewNF("vce-1", "vCE", "v1"))
	srv := httptest.NewServer(tb.Handler())
	defer srv.Close()

	post := func(api string, args map[string]string) (int, map[string]string) {
		t.Helper()
		body, _ := json.Marshal(args)
		resp, err := http.Post(srv.URL+api, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out := map[string]string{}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, out
	}
	code, out := post("/api/bb/software-upgrade/vCE", map[string]string{"instance": "vce-1", "sw_version": "v3"})
	if code != http.StatusOK || out["status"] != "success" {
		t.Fatalf("http upgrade: %d %v", code, out)
	}
	nf, _ := tb.Get("vce-1")
	if nf.ActiveVersion() != "v3" {
		t.Fatalf("version = %s", nf.ActiveVersion())
	}
	// Error propagation.
	if code, out := post("/api/bb/health-check", map[string]string{"instance": "ghost"}); code != http.StatusBadGateway || out["error"] == "" {
		t.Fatalf("remote error not propagated: %d %v", code, out)
	}
}

func TestFailureInjectionRate(t *testing.T) {
	tb := New(7)
	tb.MustAdd(NewNF("a", "vCE", "v1"))
	if err := tb.SetFault("a", FaultSpec{ErrorRate: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Invoke(ctx(), "/api/bb/health-check", map[string]string{"instance": "a"}); err == nil {
		t.Fatal("forced failure did not occur")
	}
}

func TestDuplicateAdd(t *testing.T) {
	tb := New(1)
	tb.MustAdd(NewNF("a", "vCE", "v1"))
	if err := tb.Add(NewNF("a", "vCE", "v1")); err == nil {
		t.Fatal("duplicate accepted")
	}
}
