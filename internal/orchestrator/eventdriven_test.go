package orchestrator

// Event-driven (policy-based) change composition: the alternative design
// strategy discussed in the Section 3.2 remarks, kept as a test-side
// ablation harness. Building blocks are not explicitly wired into a
// workflow graph; instead, policies subscribe to events and invoke blocks
// whose completion emits further events. The paper argues workflow-based
// composition makes change design, state management, and fall-out
// troubleshooting easier, and defers a quantitative comparison to future
// work — BenchmarkEventVsWorkflow in bench_test.go provides that
// comparison on this implementation, and the tests below show the hazards.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"cornet/internal/workflow"
)

// Event is a message on the policy bus.
type Event struct {
	// Topic names the event, e.g. "change.requested", "health.ok".
	Topic string
	// Data carries the accumulated change state.
	Data map[string]string
}

// Policy reacts to a topic by invoking a building block and emitting
// follow-up events.
type Policy struct {
	// Name identifies the policy in traces.
	Name string
	// On is the topic that triggers the policy.
	On string
	// Block is the building-block API to invoke ("" for pure routing
	// policies that only re-emit).
	Block string
	// Args maps block inputs to literals ("=v") or state refs ("$k"),
	// like workflow task nodes.
	Args map[string]string
	// Saves maps block outputs into the event state.
	Saves map[string]string
	// Emit chooses the follow-up topic from the block outcome: keys are
	// "success" and "failure" (invocation error), plus output-value
	// matches of the form "verdict=degradation". Failure actions do not
	// exist here — the "failure" topic is the event-driven model's only
	// recourse (one of the state-management limits the paper calls out).
	Emit map[string]string
}

// EventEngine runs policies to quiescence for one change.
type EventEngine struct {
	invoker  Invoker
	policies []Policy
	// MaxEvents guards against policy loops.
	MaxEvents int
}

// NewEventEngine builds an engine over an invoker and policy set.
func NewEventEngine(inv Invoker, policies []Policy) *EventEngine {
	return &EventEngine{invoker: inv, policies: policies, MaxEvents: 1000}
}

// EventTrace records one policy firing.
type EventTrace struct {
	Policy  string
	Topic   string
	Block   string
	Status  Status
	Err     string
	Emitted string
}

// EventExecution is the outcome of one event-driven change.
type EventExecution struct {
	Status Status
	State  map[string]string
	Trace  []EventTrace
}

// Run injects the start event and processes the policy cascade until no
// policy matches, a terminal topic ("done" / "failed") is reached, or the
// event budget is exhausted. Unlike the workflow engine there is no
// explicit end state: termination is emergent from the policy set, which
// is exactly the state-management difficulty the paper calls out.
//
// The cascade is a FIFO of topics drained on the caller's goroutine; it
// keeps duplicates, because the same topic emitted twice must fire its
// policies twice. Unmatched topics simply die out (another fall-out hazard).
func (e *EventEngine) Run(ctx context.Context, start Event) (*EventExecution, error) {
	exec := &EventExecution{Status: StatusRunning, State: map[string]string{}}
	for k, v := range start.Data {
		exec.State[k] = v
	}
	queue := []string{start.Topic}
	events := 0
	for len(queue) > 0 {
		topic := queue[0]
		queue = queue[1:]
		if err := ctx.Err(); err != nil {
			exec.Status = StatusFailure
			return exec, fmt.Errorf("orchestrator: event run halted: %w", err)
		}
		switch topic {
		case "done":
			exec.Status = StatusSuccess
			return exec, nil
		case "failed":
			exec.Status = StatusFailure
			return exec, fmt.Errorf("orchestrator: event cascade reached failed")
		}
		for _, p := range e.policies {
			if p.On != topic {
				continue
			}
			if events++; events > e.MaxEvents {
				exec.Status = StatusFailure
				return exec, fmt.Errorf("orchestrator: event budget exceeded (%d); policy loop?", e.MaxEvents)
			}
			tr := e.fire(ctx, p, exec)
			exec.Trace = append(exec.Trace, tr)
			if tr.Emitted != "" {
				queue = append(queue, tr.Emitted)
			}
		}
	}
	// Queue drained without reaching "done": the cascade fizzled.
	exec.Status = StatusFailure
	return exec, fmt.Errorf("orchestrator: event cascade ended without completion")
}

// fire runs one policy: invoke its block once, save outputs, pick the topic
// to emit.
func (e *EventEngine) fire(ctx context.Context, p Policy, exec *EventExecution) EventTrace {
	tr := EventTrace{Policy: p.Name, Topic: p.On, Block: p.Block, Status: StatusSuccess}
	var outputs map[string]string
	if p.Block != "" {
		args := map[string]string{}
		for k, v := range exec.State {
			args[k] = v
		}
		for name, binding := range p.Args {
			if strings.HasPrefix(binding, "$") {
				args[name] = exec.State[binding[1:]]
			} else {
				args[name] = strings.TrimPrefix(binding, "=")
			}
		}
		var err error
		if outputs, err = e.invoker.Invoke(ctx, p.Block, args); err != nil {
			tr.Status = StatusFailure
			tr.Err = err.Error()
			tr.Emitted = p.Emit["failure"]
			return tr
		}
	}
	for out, v := range p.Saves {
		if val, ok := outputs[out]; ok {
			exec.State[v] = val
		}
	}
	// Value-matched emissions take precedence over the generic success.
	for key, emit := range p.Emit {
		if name, want, found := strings.Cut(key, "="); found && outputs[name] == want {
			tr.Emitted = emit
			return tr
		}
	}
	tr.Emitted = p.Emit["success"]
	return tr
}

// UpgradePolicies expresses the Fig. 4 software-upgrade flow as an
// event-driven policy set, for the workflow-vs-event comparison.
func UpgradePolicies() []Policy {
	return []Policy{
		{
			Name: "on-request-health-check", On: "change.requested",
			Block: "/api/bb/health-check",
			Saves: map[string]string{"status": "health_status"},
			Emit: map[string]string{
				"status=success": "health.ok",
				"status=failure": "done", // unhealthy: end without change
				"failure":        "failed",
			},
		},
		{
			Name: "on-healthy-upgrade", On: "health.ok",
			Block: "/api/bb/software-upgrade",
			Saves: map[string]string{"status": "upgrade_status"},
			Emit: map[string]string{
				"status=success": "upgraded",
				"failure":        "failed",
			},
		},
		{
			Name: "on-upgraded-compare", On: "upgraded",
			Block: "/api/bb/pre-post-comparison",
			Saves: map[string]string{"verdict": "compare_verdict"},
			Emit: map[string]string{
				"verdict=degradation": "comparison.bad",
				"success":             "done",
				"failure":             "failed",
			},
		},
		{
			Name: "on-bad-comparison-rollback", On: "comparison.bad",
			Block: "/api/bb/roll-back",
			Args:  map[string]string{"sw_version": "$prior_version"},
			Saves: map[string]string{"status": "rollback_status"},
			Emit: map[string]string{
				"success": "done",
				"failure": "failed",
			},
		},
	}
}

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
