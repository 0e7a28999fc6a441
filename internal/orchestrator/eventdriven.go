package orchestrator

// Event-driven (policy-based) change composition: the alternative design
// strategy discussed in the Section 3.2 remarks. Building blocks are not
// explicitly wired into a workflow graph; instead, policies subscribe to
// events and invoke blocks whose completion emits further events. The
// paper argues workflow-based composition makes change design, state
// management, and fall-out troubleshooting easier, and defers a
// quantitative comparison to future work — BenchmarkEventVsWorkflow in
// bench_test.go provides that comparison on this implementation.

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"cornet/internal/orchestrator/resilience"
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
	// Name identifies the policy in logs.
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
	// matches of the form "verdict=degradation".
	Emit map[string]string
	// Retry optionally declares an execution policy for the block
	// invocation (timeout, attempts, backoff); it overlays the engine's
	// Defaults. Failure actions do not apply here — exhaustion emits the
	// "failure" topic, which is the event-driven model's only recourse
	// (one of the state-management limits the paper calls out).
	Retry *resilience.Policy
}

// EventEngine runs policies to quiescence for one change.
type EventEngine struct {
	invoker  Invoker
	policies []Policy
	// MaxEvents guards against policy loops.
	MaxEvents int
	// Clock abstracts time for tests; defaults to time.Now.
	Clock func() time.Time
	// Defaults is the engine-wide execution policy for block invocations;
	// a policy's own Retry field overlays it.
	Defaults resilience.Policy
	// Breakers optionally gates invocations through per-API circuit
	// breakers, shared with the workflow engine when both run against
	// the same endpoints.
	Breakers *resilience.BreakerSet
	// Sleep waits between retry attempts (tests inject a fake).
	Sleep func(context.Context, time.Duration) error

	jitter *jitterRand
}

// NewEventEngine builds an engine over an invoker and policy set.
func NewEventEngine(inv Invoker, policies []Policy) *EventEngine {
	return &EventEngine{
		invoker: inv, policies: policies, MaxEvents: 1000, Clock: time.Now,
		Sleep: ctxSleep, jitter: newJitterRand(1),
	}
}

// EventTrace records one policy firing.
type EventTrace struct {
	Policy   string
	Topic    string
	Block    string
	Status   Status
	Err      string
	Emitted  string
	Duration time.Duration
	// Attempts counts invocations made under the policy's retry budget
	// (0 for pure routing policies and breaker-rejected calls).
	Attempts int
}

// EventExecution is the outcome of one event-driven change.
type EventExecution struct {
	mu     sync.Mutex
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
// policies twice.
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
		matched := false
		for _, p := range e.policies {
			if p.On != topic {
				continue
			}
			matched = true
			if events++; events > e.MaxEvents {
				exec.Status = StatusFailure
				return exec, fmt.Errorf("orchestrator: event budget exceeded (%d); policy loop?", e.MaxEvents)
			}
			emitted, tr := e.fire(ctx, p, exec)
			exec.Trace = append(exec.Trace, tr)
			if emitted != "" {
				queue = append(queue, emitted)
			}
		}
		_ = matched // unmatched topics simply die out (another fall-out hazard)
	}
	// Queue drained without reaching "done": the cascade fizzled.
	exec.Status = StatusFailure
	return exec, fmt.Errorf("orchestrator: event cascade ended without completion")
}

func (e *EventEngine) fire(ctx context.Context, p Policy, exec *EventExecution) (string, EventTrace) {
	tr := EventTrace{Policy: p.Name, Topic: p.On, Block: p.Block, Status: StatusSuccess}
	start := e.Clock()
	var outputs map[string]string
	var err error
	if p.Block != "" {
		args := map[string]string{}
		exec.mu.Lock()
		for k, v := range exec.State {
			args[k] = v
		}
		exec.mu.Unlock()
		for name, binding := range p.Args {
			if strings.HasPrefix(binding, "$") {
				args[name] = exec.State[binding[1:]]
			} else {
				args[name] = strings.TrimPrefix(binding, "=")
			}
		}
		pi := policyInvoker{
			inv: e.invoker, breakers: e.Breakers,
			delay: e.jitter.delay, sleep: e.sleepFn(),
			onRetry: func(int, time.Duration, error) {
				metricBBRetries.With(p.Block).Inc()
			},
		}
		outputs, tr.Attempts, err = pi.do(ctx, p.Block, args, p.Retry.Merge(e.Defaults))
	}
	tr.Duration = e.Clock().Sub(start)
	if err != nil {
		tr.Status = StatusFailure
		tr.Err = err.Error()
		tr.Emitted = p.Emit["failure"]
		return tr.Emitted, tr
	}
	exec.mu.Lock()
	for out, v := range p.Saves {
		if val, ok := outputs[out]; ok {
			exec.State[v] = val
		}
	}
	exec.mu.Unlock()
	// Value-matched emissions take precedence over the generic success.
	for key, emit := range p.Emit {
		name, want, found := strings.Cut(key, "=")
		if !found {
			continue
		}
		if outputs[name] == want {
			tr.Emitted = emit
			return emit, tr
		}
	}
	tr.Emitted = p.Emit["success"]
	return tr.Emitted, tr
}

// sleepFn returns the engine's inter-attempt wait, defaulting to a
// context-aware timer sleep.
func (e *EventEngine) sleepFn() func(context.Context, time.Duration) error {
	if e.Sleep != nil {
		return e.Sleep
	}
	return ctxSleep
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
