package compose

import (
	"time"

	"cornet/internal/obs"
	"cornet/internal/obs/events"
)

// Composition metrics, registered in the process-wide obs registry and
// documented in the README metrics table.
var (
	metricMerged = obs.Default.CounterVec("cornet_compose_merged_total",
		"Constituent changes merged into a composed schedule, by strategy.", "strategy")
	metricQueued = obs.Default.CounterVec("cornet_compose_queued_total",
		"Conflicting submissions queued behind another change, by strategy.", "strategy")
	metricRejected = obs.Default.CounterVec("cornet_compose_rejected_total",
		"Conflicting submissions rejected with a diagnosis, by strategy.", "strategy")
	metricFailed = obs.Default.CounterVec("cornet_compose_failed_total",
		"Sealed generations whose solve failed (no schedule produced), by strategy.", "strategy")
	metricSeals = obs.Default.CounterVec("cornet_compose_seals_total",
		"Non-empty generations sealed, by what sealed them (window, batch, cohort, stop).", "reason")
	metricWindowWait = obs.Default.Histogram("cornet_compose_window_wait_seconds",
		"How long a non-empty generation stayed open before it sealed.", nil)
)

// observeSeal counts one non-empty generation's seal by reason and records
// how long it had been open.
func observeSeal(out *Outcome) {
	metricSeals.With(string(out.Seal)).Inc()
	metricWindowWait.Observe(out.Waited.Seconds())
}

// waitedMS renders how long a generation stayed open for event fields.
func waitedMS(out *Outcome) float64 {
	return float64(out.Waited) / float64(time.Millisecond)
}

// publishMerged journals a sealed generation's successful merge — it runs
// only after Solve has produced the composed schedule, so a compose.merged
// event always corresponds to a real outcome: one event on the composed
// change's timeline listing the members, plus one on each member's
// timeline linking back to the composed id — so both directions of the
// composition are reconstructable from GET /api/changes/{id}/timeline.
func publishMerged(s Strategy, composed *Delta, members []*Delta, out *Outcome) {
	metricMerged.With(s.Name()).Add(float64(len(members)))
	base := map[string]any{
		"composed":    out.ComposedID,
		"members":     out.Members,
		"strategy":    out.Strategy,
		"parallelism": string(out.Parallelism),
		"ops":         len(composed.Ops),
		"seal":        string(out.Seal),
		"waited_ms":   waitedMS(out),
	}
	events.Default.Publish(events.Event{
		Type: events.TypeComposeMerged, Source: "compose",
		ChangeID: out.ComposedID, Tenant: composed.Tenant, Fields: base,
	})
	for _, m := range members {
		events.Default.Publish(events.Event{
			Type: events.TypeComposeMerged, Source: "compose",
			ChangeID: m.ChangeID, Tenant: m.Tenant, Fields: base,
		})
	}
}

// publishSolveFailed journals a sealed generation whose solve errored: a
// compose.failed event on the composed change's timeline and on every
// member's, carrying the error — the counterpart of publishMerged for the
// generation that produced no schedule.
func publishSolveFailed(s Strategy, composed *Delta, members []*Delta, out *Outcome, err error) {
	metricFailed.With(s.Name()).Inc()
	fields := map[string]any{
		"composed":  out.ComposedID,
		"members":   out.Members,
		"strategy":  out.Strategy,
		"error":     err.Error(),
		"seal":      string(out.Seal),
		"waited_ms": waitedMS(out),
	}
	events.Default.Publish(events.Event{
		Type: events.TypeComposeFailed, Source: "compose",
		ChangeID: out.ComposedID, Tenant: composed.Tenant, Fields: fields,
	})
	for _, m := range members {
		events.Default.Publish(events.Event{
			Type: events.TypeComposeFailed, Source: "compose",
			ChangeID: m.ChangeID, Tenant: m.Tenant, Fields: fields,
		})
	}
}

// publishQueued journals one conflicting submission parking behind the
// changes named in the diagnosis.
func publishQueued(s Strategy, d *Delta, diag *Diagnosis, requeue int) {
	metricQueued.With(s.Name()).Inc()
	events.Default.Publish(events.Event{
		Type: events.TypeComposeQueued, Source: "compose",
		ChangeID: d.ChangeID, Tenant: d.Tenant,
		Fields: map[string]any{
			"strategy": s.Name(),
			"behind":   diag.Changes(),
			"paths":    diag.Paths(),
			"requeue":  requeue,
		},
	})
}

// publishRejected journals one refused submission with its diagnosis.
func publishRejected(s Strategy, d *Delta, diag *Diagnosis, requeued int) {
	metricRejected.With(s.Name()).Inc()
	events.Default.Publish(events.Event{
		Type: events.TypeComposeRejected, Source: "compose",
		ChangeID: d.ChangeID, Tenant: d.Tenant,
		Fields: map[string]any{
			"strategy":   s.Name(),
			"behind":     diag.Changes(),
			"paths":      diag.Paths(),
			"collisions": len(diag.Collisions),
			"requeued":   requeued,
		},
	})
}
