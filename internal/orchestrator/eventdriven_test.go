package orchestrator

import (
	"context"
	"errors"
	"strings"
	"testing"

	"cornet/internal/workflow"
)

func TestEventDrivenHappyPath(t *testing.T) {
	inv := &fakeInvoker{}
	eng := NewEventEngine(inv, UpgradePolicies())
	exec, err := eng.Run(context.Background(), Event{
		Topic: "change.requested",
		Data:  map[string]string{"instance": "enb1", "sw_version": "v2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if exec.Status != StatusSuccess {
		t.Fatalf("status = %s", exec.Status)
	}
	if len(exec.Trace) != 3 { // health, upgrade, compare
		t.Fatalf("trace = %+v", exec.Trace)
	}
	apis := inv.calledAPIs()
	if apis[len(apis)-1] != "/api/bb/pre-post-comparison" {
		t.Fatalf("apis = %v", apis)
	}
}

func TestEventDrivenRollback(t *testing.T) {
	inv := &fakeInvoker{outputs: map[string]map[string]string{
		"/api/bb/pre-post-comparison": {"verdict": "degradation"},
	}}
	eng := NewEventEngine(inv, UpgradePolicies())
	exec, err := eng.Run(context.Background(), Event{
		Topic: "change.requested",
		Data:  map[string]string{"instance": "enb1", "sw_version": "v2", "prior_version": "v1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if exec.Status != StatusSuccess {
		t.Fatalf("status = %s", exec.Status)
	}
	last := exec.Trace[len(exec.Trace)-1]
	if last.Block != "/api/bb/roll-back" {
		t.Fatalf("trace = %+v", exec.Trace)
	}
}

func TestEventDrivenUnhealthyEndsEarly(t *testing.T) {
	inv := &fakeInvoker{outputs: map[string]map[string]string{
		"/api/bb/health-check": {"status": "failure"},
	}}
	eng := NewEventEngine(inv, UpgradePolicies())
	exec, err := eng.Run(context.Background(), Event{
		Topic: "change.requested",
		Data:  map[string]string{"instance": "enb1", "sw_version": "v2"},
	})
	if err != nil || exec.Status != StatusSuccess {
		t.Fatalf("status = %s err = %v", exec.Status, err)
	}
	for _, api := range inv.calledAPIs() {
		if api == "/api/bb/software-upgrade" {
			t.Fatal("upgrade ran after failed health check")
		}
	}
}

func TestEventDrivenInvocationFailure(t *testing.T) {
	inv := &fakeInvoker{errs: map[string]error{
		"/api/bb/software-upgrade": errors.New("ssh down"),
	}}
	eng := NewEventEngine(inv, UpgradePolicies())
	exec, err := eng.Run(context.Background(), Event{
		Topic: "change.requested",
		Data:  map[string]string{"instance": "enb1", "sw_version": "v2"},
	})
	if err == nil || exec.Status != StatusFailure {
		t.Fatalf("status = %s err = %v", exec.Status, err)
	}
}

// The fall-out hazard the paper's remarks describe: a policy set with a
// dangling topic fizzles out with no explicit end, and diagnosing which
// event chain broke requires reading the trace.
func TestEventDrivenFizzle(t *testing.T) {
	policies := UpgradePolicies()
	policies[1].Emit["status=success"] = "upgraded.v2" // nobody subscribes
	eng := NewEventEngine(&fakeInvoker{}, policies)
	exec, err := eng.Run(context.Background(), Event{
		Topic: "change.requested",
		Data:  map[string]string{"instance": "enb1", "sw_version": "v2"},
	})
	if err == nil || !strings.Contains(err.Error(), "without completion") {
		t.Fatalf("fizzle not detected: %v", err)
	}
	if exec.Status != StatusFailure {
		t.Fatalf("status = %s", exec.Status)
	}
}

// Policy loops are caught by the event budget rather than by design-time
// verification — the workflow engine's cycle guard has a static
// counterpart (Verify), the event engine does not.
func TestEventDrivenLoopGuard(t *testing.T) {
	policies := []Policy{
		{Name: "ping", On: "a", Block: "/api/bb/health-check",
			Emit: map[string]string{"success": "b"}},
		{Name: "pong", On: "b", Block: "/api/bb/health-check",
			Emit: map[string]string{"success": "a"}},
	}
	eng := NewEventEngine(&fakeInvoker{}, policies)
	eng.MaxEvents = 50
	_, err := eng.Run(context.Background(), Event{Topic: "a",
		Data: map[string]string{"instance": "x"}})
	if err == nil || !strings.Contains(err.Error(), "policy loop") {
		t.Fatalf("loop not caught: %v", err)
	}
}

func TestEventDrivenContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eng := NewEventEngine(&fakeInvoker{}, UpgradePolicies())
	exec, err := eng.Run(ctx, Event{Topic: "change.requested"})
	if err == nil || exec.Status != StatusFailure {
		t.Fatalf("cancel ignored: %v", err)
	}
}

// Equivalence: on the same invoker behaviour, event-driven and
// workflow-based compositions of Fig. 4 call the same blocks in the same
// order for the happy path and the rollback path.
func TestEventVsWorkflowEquivalence(t *testing.T) {
	for _, scenario := range []struct {
		name    string
		outputs map[string]map[string]string
	}{
		{"happy", nil},
		{"rollback", map[string]map[string]string{
			"/api/bb/pre-post-comparison": {"verdict": "degradation"},
		}},
	} {
		t.Run(scenario.name, func(t *testing.T) {
			invWF := &fakeInvoker{outputs: scenario.outputs}
			invEV := &fakeInvoker{outputs: scenario.outputs}

			wfDep := mustDeployUpgrade(t)
			_, err := NewEngine(invWF).Execute(context.Background(), wfDep, map[string]string{
				"instance": "enb1", "sw_version": "v2", "prior_version": "v1",
			})
			if err != nil {
				t.Fatal(err)
			}
			_, err = NewEventEngine(invEV, UpgradePolicies()).Run(context.Background(), Event{
				Topic: "change.requested",
				Data:  map[string]string{"instance": "enb1", "sw_version": "v2", "prior_version": "v1"},
			})
			if err != nil {
				t.Fatal(err)
			}
			a, b := invWF.calledAPIs(), invEV.calledAPIs()
			if len(a) != len(b) {
				t.Fatalf("call counts differ: %v vs %v", a, b)
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("call order differs: %v vs %v", a, b)
				}
			}
		})
	}
}

func mustDeployUpgrade(t *testing.T) *workflow.Deployment {
	t.Helper()
	dep, err := workflow.Deploy(workflow.SoftwareUpgrade(), "eNodeB",
		func(block, nf string) (string, error) { return "/api/bb/" + block, nil })
	if err != nil {
		t.Fatal(err)
	}
	return dep
}

// The cascade queue keeps duplicates: a topic emitted by two policies fires
// its subscribers once per emission, not once per distinct topic.
func TestEventDrivenDuplicateTopicFiresTwice(t *testing.T) {
	policies := []Policy{
		{Name: "fan-a", On: "go", Emit: map[string]string{"success": "work"}},
		{Name: "fan-b", On: "go", Emit: map[string]string{"success": "work"}},
		{Name: "worker", On: "work", Block: "/api/bb/health-check"},
	}
	inv := &fakeInvoker{}
	exec, _ := NewEventEngine(inv, policies).Run(context.Background(), Event{Topic: "go"})
	if n := len(inv.calledAPIs()); n != 2 {
		t.Fatalf("worker block invoked %d times, want 2", n)
	}
	var fired []string
	for _, tr := range exec.Trace {
		fired = append(fired, tr.Policy)
	}
	if got := strings.Join(fired, " "); got != "fan-a fan-b worker worker" {
		t.Fatalf("fired %q, want both fan-outs then the worker twice", got)
	}
}
