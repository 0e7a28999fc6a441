package testbed

import (
	"bytes"
	stdctx "context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func newFaultTB(t *testing.T, seed int64) *Testbed {
	t.Helper()
	tb := New(seed)
	tb.MustAdd(NewNF("vce-000", "vCE", "v1"))
	return tb
}

func TestFaultSpecValidation(t *testing.T) {
	tb := newFaultTB(t, 1)
	for name, bad := range map[string]FaultSpec{
		"rate":   {ErrorRate: 1.5},
		"neg":    {ErrorRate: -0.1},
		"lat":    {LatencyMS: -1},
		"mode":   {Mode: "meltdown"},
		"period": {Mode: FaultModeFlap, FlapPeriod: -2},
	} {
		if err := tb.SetFault("*", bad); err == nil {
			t.Errorf("%s: invalid spec accepted", name)
		}
	}
	// A zero spec clears rather than installs.
	if err := tb.SetFault("vce-000", FaultSpec{ErrorRate: 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := tb.SetFault("vce-000", FaultSpec{}); err != nil {
		t.Fatal(err)
	}
	if len(tb.Faults()) != 0 {
		t.Fatalf("zero spec should clear: %v", tb.Faults())
	}
	// Empty target means the wildcard.
	if err := tb.SetFault("", FaultSpec{ErrorRate: 0.1}); err != nil {
		t.Fatal(err)
	}
	if _, ok := tb.Faults()[FaultTargetAll]; !ok {
		t.Fatalf("empty target should map to wildcard: %v", tb.Faults())
	}
}

func TestFlapWindowsDeterministic(t *testing.T) {
	tb := newFaultTB(t, 1)
	if err := tb.SetFault("vce-000", FaultSpec{Mode: FaultModeFlap, FlapPeriod: 2}); err != nil {
		t.Fatal(err)
	}
	// (call/2)%2==1: calls 0,1 pass; 2,3 fail; 4,5 pass...
	want := []bool{true, true, false, false, true, true, false, false}
	args := map[string]string{"instance": "vce-000"}
	for i, ok := range want {
		_, err := tb.Invoke(ctx(), "/api/bb/health-check", args)
		if ok && err != nil {
			t.Fatalf("call %d should pass, got %v", i, err)
		}
		if !ok {
			if err == nil {
				t.Fatalf("call %d should hit the down window", i)
			}
			if !strings.Contains(err.Error(), "transient flap") {
				t.Fatalf("flap error not worded transiently: %v", err)
			}
		}
	}
	// Reinstalling the spec resets the call counter.
	if err := tb.SetFault("vce-000", FaultSpec{Mode: FaultModeFlap, FlapPeriod: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Invoke(ctx(), "/api/bb/health-check", args); err != nil {
		t.Fatalf("counter should reset with the spec: %v", err)
	}
}

func TestErrorRateSeededReproducibility(t *testing.T) {
	run := func(seed int64) []bool {
		tb := newFaultTB(t, seed)
		if err := tb.SetFault("*", FaultSpec{ErrorRate: 0.5}); err != nil {
			t.Fatal(err)
		}
		args := map[string]string{"instance": "vce-000"}
		var out []bool
		for i := 0; i < 32; i++ {
			_, err := tb.Invoke(ctx(), "/api/bb/health-check", args)
			out = append(out, err == nil)
		}
		return out
	}
	a, b := run(7), run(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at call %d", i)
		}
	}
	c := run(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical fault sequences")
	}
	// Rate 0 never fails; rate 1 always fails.
	if failures := countFalse(run(7)); failures == 0 || failures == 32 {
		t.Fatalf("0.5 rate produced %d/32 failures", failures)
	}
}

func countFalse(v []bool) int {
	n := 0
	for _, ok := range v {
		if !ok {
			n++
		}
	}
	return n
}

func TestExactTargetBeatsWildcard(t *testing.T) {
	tb := newFaultTB(t, 1)
	tb.MustAdd(NewNF("vce-001", "vCE", "v1"))
	if err := tb.SetFault("*", FaultSpec{ErrorRate: 1}); err != nil {
		t.Fatal(err)
	}
	if err := tb.SetFault("vce-000", FaultSpec{LatencyMS: 1}); err != nil {
		t.Fatal(err)
	}
	// vce-000's exact spec has no error rate, so its calls pass.
	if _, err := tb.Invoke(ctx(), "/api/bb/health-check", map[string]string{"instance": "vce-000"}); err != nil {
		t.Fatalf("exact target should shadow wildcard: %v", err)
	}
	// vce-001 falls through to the wildcard's certain failure.
	if _, err := tb.Invoke(ctx(), "/api/bb/health-check", map[string]string{"instance": "vce-001"}); err == nil {
		t.Fatal("wildcard fault should apply to unshadowed instance")
	}
}

func TestBlackholeRespectsContext(t *testing.T) {
	tb := newFaultTB(t, 1)
	if err := tb.SetFault("vce-000", FaultSpec{Mode: FaultModeBlackhole}); err != nil {
		t.Fatal(err)
	}
	cctx, cancel := stdctx.WithTimeout(stdctx.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := tb.Invoke(cctx, "/api/bb/health-check", map[string]string{"instance": "vce-000"})
	if err == nil {
		t.Fatal("blackholed call should fail when its context expires")
	}
	if !strings.Contains(err.Error(), "blackholed") {
		t.Fatalf("unexpected error: %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("blackhole did not release on context expiry")
	}
}

func TestFaultLatencyDelaysCall(t *testing.T) {
	tb := newFaultTB(t, 1)
	if err := tb.SetFault("vce-000", FaultSpec{LatencyMS: 30, LatencyJitterMS: 10}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := tb.Invoke(ctx(), "/api/bb/health-check", map[string]string{"instance": "vce-000"}); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Fatalf("call returned in %v, want >= 30ms injected latency", d)
	}
}

func TestFaultsHTTPEndpoint(t *testing.T) {
	tb := newFaultTB(t, 1)
	srv := httptest.NewServer(tb.Handler())
	defer srv.Close()

	post := func(body string) *http.Response {
		t.Helper()
		resp, err := http.Post(srv.URL+"/api/testbed/faults", "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	// Install a flap fault on a known instance.
	resp := post(`{"target": "vce-000", "mode": "flap", "flap_period": 3}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST status %d", resp.StatusCode)
	}
	var listed map[string]FaultSpec
	if err := json.NewDecoder(resp.Body).Decode(&listed); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if listed["vce-000"].Mode != FaultModeFlap || listed["vce-000"].FlapPeriod != 3 {
		t.Fatalf("installed spec not echoed: %v", listed)
	}
	// Unknown instances and malformed specs are rejected.
	if resp := post(`{"target": "nope", "error_rate": 0.5}`); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown instance: status %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	if resp := post(`{"target": "*", "error_rate": 7}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec: status %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	// GET lists what POST installed.
	resp, err := http.Get(srv.URL + "/api/testbed/faults")
	if err != nil {
		t.Fatal(err)
	}
	listed = nil
	if err := json.NewDecoder(resp.Body).Decode(&listed); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(listed) != 1 {
		t.Fatalf("GET listed %v", listed)
	}
	// DELETE with a target clears just that target; without, everything.
	if err := tb.SetFault("*", FaultSpec{ErrorRate: 0.1}); err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/api/testbed/faults?target=vce-000", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if f := tb.Faults(); len(f) != 1 || f["vce-000"].Mode != "" {
		t.Fatalf("targeted delete left %v", f)
	}
	req, _ = http.NewRequest(http.MethodDelete, srv.URL+"/api/testbed/faults", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if f := tb.Faults(); len(f) != 0 {
		t.Fatalf("clear-all left %v", f)
	}
}
