package controller

import "cornet/internal/obs"

// Controller-runtime metrics, named per the PR-3/PR-5 cornet_* scheme and
// exposed by cmd/cornetd at GET /metrics. The controller label carries the
// name given to New; the daemon runs one controller, "reconcile".
var (
	metricReconciles = obs.Default.CounterVec("cornet_controller_reconciles_total",
		"Reconcile passes by controller and result (success|requeue|error).", "controller", "result")
	metricQueueDepth = obs.Default.GaugeVec("cornet_controller_queue_depth",
		"Work-queue keys ready for reconciliation, by controller.", "controller")
	metricRequeues = obs.Default.CounterVec("cornet_controller_requeues_total",
		"Rate-limited backoff requeues, by controller.", "controller")
	metricReconcileDuration = obs.Default.HistogramVec("cornet_controller_reconcile_seconds",
		"Reconcile pass latency by controller.", obs.DefBuckets(), "controller")
)
