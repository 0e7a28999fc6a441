package orchestrator

import (
	"context"
	"log/slog"

	"cornet/internal/obs"
	"cornet/internal/obs/events"
)

// Execution metrics, recorded in the process-wide registry for every
// workflow run — the aggregate counterpart of the paper's per-building-
// block logs (cmd/cornetd exposes them at GET /metrics).
var (
	metricBBInvocations = obs.Default.CounterVec("cornet_bb_invocations_total",
		"Building-block invocations by block and status.", "block", "status")
	metricBBDuration = obs.Default.HistogramVec("cornet_bb_duration_seconds",
		"Building-block invocation latency by block.", obs.DefBuckets(), "block")
	metricWfExecutions = obs.Default.CounterVec("cornet_wf_executions_total",
		"Workflow executions by workflow and final status.", "workflow", "status")
	metricWfPauses = obs.Default.Counter("cornet_wf_pauses_total",
		"Workflow executions paused by an operator.")
	metricWfResumes = obs.Default.Counter("cornet_wf_resumes_total",
		"Paused workflow executions resumed.")
	metricWfRollbacks = obs.Default.Counter("cornet_wf_rollbacks_total",
		"Roll-back building blocks executed (the paper's rollback decisions).")
	metricDispatched = obs.Default.CounterVec("cornet_dispatch_changes_total",
		"Scheduled changes dispatched, by result.", "result")
	metricBBRetries = obs.Default.CounterVec("cornet_bb_retries_total",
		"Building-block invocation retries scheduled, by block.", "block")
	metricWfFailureActions = obs.Default.CounterVec("cornet_wf_failure_actions_total",
		"Failure actions applied after a block exhausted its attempts, by block and action.", "block", "action")
	metricBreakerTrips = obs.Default.CounterVec("cornet_breaker_trips_total",
		"Circuit breakers tripped open, by building-block API.", "api")
	metricBreakerTransitions = obs.Default.CounterVec("cornet_breaker_transitions_total",
		"Circuit breaker state transitions, by target state.", "state")
)

// logger returns the engine's structured logger, defaulting to a silent
// one so library users stay quiet unless they inject a real logger.
func (eng *Engine) logger() *slog.Logger {
	if eng.Log != nil {
		return eng.Log
	}
	return obs.NopLogger()
}

// publish journals one lifecycle fact, with attrs as the event's fields,
// against the change and tenant ctx carries.
func (eng *Engine) publish(ctx context.Context, typ events.Type, attrs ...slog.Attr) {
	fields := make(map[string]any, len(attrs))
	for _, a := range attrs {
		fields[a.Key] = a.Value.Any()
	}
	events.Default.Publish(events.Event{
		Type: typ, Source: "orchestrator",
		ChangeID: obs.ChangeID(ctx), Tenant: obs.Tenant(ctx), Fields: fields,
	})
}

// emit writes one lifecycle fact to both of its readers from fields typed
// once: the journal event (publish) and the log record, whose attributes so
// carry the event's field names.
func (eng *Engine) emit(ctx context.Context, lvl slog.Level, msg string, typ events.Type, attrs ...slog.Attr) {
	eng.publish(ctx, typ, attrs...)
	eng.logger().LogAttrs(ctx, lvl, msg, attrs...)
}
