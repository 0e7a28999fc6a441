package reconcile

import "cornet/internal/obs"

// Reconciliation metrics, exposed by cmd/cornetd at GET /metrics. The
// cornet_controller_* series of the loop carry controller="reconcile"
// (loopName); the rest cover the reconciler's own domain: drift discovery
// and the change executions it drives.
var (
	metricReconciles = obs.Default.CounterVec("cornet_controller_reconciles_total",
		"Reconcile passes by controller and result (success|requeue|error).", "controller", "result")
	metricQueueDepth = obs.Default.GaugeVec("cornet_controller_queue_depth",
		"Work-queue keys ready for reconciliation, by controller.", "controller")
	metricRequeues = obs.Default.CounterVec("cornet_controller_requeues_total",
		"Rate-limited backoff requeues, by controller.", "controller")
	metricReconcileDuration = obs.Default.HistogramVec("cornet_controller_reconcile_seconds",
		"Reconcile pass latency by controller.", obs.DefBuckets(), "controller")
	metricDriftDetected = obs.Default.CounterVec(
		"cornet_controller_drift_detected_total",
		"Drifted (element, attribute) pairs found by reconcile passes.",
		"fleet")
	metricChanges = obs.Default.CounterVec(
		"cornet_reconcile_changes_total",
		"Change executions driven by the reconciler, by outcome.",
		"fleet", "outcome")
)
