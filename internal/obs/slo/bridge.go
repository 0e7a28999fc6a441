package slo

import (
	"time"

	"cornet/internal/obs/events"
)

// Default objective names fed by the event bridge.
const (
	// ObjPlanLatency tracks /api/plan serving latency against a
	// threshold ("p99 under threshold" in the threshold formulation:
	// target 0.99 of requests at or under LatencyThreshold).
	ObjPlanLatency = "plan_latency"
	// ObjChangeSuccess tracks executed changes ending in success.
	ObjChangeSuccess = "change_success"
	// ObjAdmission tracks admitted-vs-shed plan requests.
	ObjAdmission = "admission"
)

// DefaultObjectives returns the serving objectives cornetd registers:
// plan latency p99, change success ratio, and admission shed ratio.
func DefaultObjectives() []Objective {
	return []Objective{
		{
			Name:             ObjPlanLatency,
			Description:      "99% of plan requests served within 2s over 1h",
			Target:           0.99,
			LatencyThreshold: 2 * time.Second,
			Window:           time.Hour,
		},
		{
			Name:        ObjChangeSuccess,
			Description: "95% of executed changes succeed over 1h",
			Target:      0.95,
			Window:      time.Hour,
		},
		{
			Name:        ObjAdmission,
			Description: "99% of plan requests admitted (not shed) over 1h",
			Target:      0.99,
			Window:      time.Hour,
		},
	}
}

// consumers maps each journal event type the tracker reads onto the
// default objectives: plan.served feeds latency and admission,
// admission.shed feeds admission, wf.end and the reconciler's
// repair/failure events feed change success.
var consumers = map[events.Type]func(*Tracker, events.Event){
	events.TypePlanServed: func(t *Tracker, e events.Event) {
		if ns, ok := asInt64(e.Fields["wall_ns"]); ok {
			t.ObserveLatency(ObjPlanLatency, time.Duration(ns))
		}
		t.Observe(ObjAdmission, true)
	},
	events.TypeShed: func(t *Tracker, _ events.Event) {
		t.Observe(ObjAdmission, false)
	},
	events.TypeWfEnd: func(t *Tracker, e events.Event) {
		status, _ := e.Fields["status"].(string)
		t.Observe(ObjChangeSuccess, status == "success")
	},
	events.TypeDriftRepaired: func(t *Tracker, _ events.Event) {
		t.Observe(ObjChangeSuccess, true)
	},
	events.TypeChangeFailed: func(t *Tracker, _ events.Event) {
		t.Observe(ObjChangeSuccess, false)
	},
}

// ConsumedTypes returns the event types Consume reads. A feed subscribes
// with events.Filter{Types: ConsumedTypes()}, so its buffer is not spent
// on — and overflowed by — the far more frequent events Consume ignores.
func ConsumedTypes() []events.Type {
	types := make([]events.Type, 0, len(consumers))
	for typ := range consumers {
		types = append(types, typ)
	}
	return types
}

// Consume maps one journal event onto the default objectives (see
// ConsumedTypes for the types it reads). Events of any other type, or
// that map to no registered objective, are ignored, so a tracker with a
// custom objective set can share the same feed.
func (t *Tracker) Consume(e events.Event) {
	if consume := consumers[e.Type]; consume != nil {
		consume(t, e)
	}
}

// Feed consumes a subscription until its channel closes; run it in a
// goroutine and Close the subscription to stop.
func (t *Tracker) Feed(sub *events.Subscription) {
	for e := range sub.C {
		t.Consume(e)
	}
}

// asInt64 coerces a journal field that may have round-tripped through
// JSON (float64) or been published natively (int64/int).
func asInt64(v any) (int64, bool) {
	switch n := v.(type) {
	case int64:
		return n, true
	case int:
		return int64(n), true
	case float64:
		return int64(n), true
	}
	return 0, false
}
