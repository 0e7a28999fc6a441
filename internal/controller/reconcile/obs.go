package reconcile

import "cornet/internal/obs"

// Reconciliation metrics. Queue depth, reconcile counts, and requeue
// backoff live on the controller runtime (internal/controller);
// these cover the reconciler's own domain: drift discovery and the change
// executions it drives.
var (
	metricDriftDetected = obs.Default.CounterVec(
		"cornet_controller_drift_detected_total",
		"Drifted (element, attribute) pairs found by reconcile passes.",
		"fleet")
	metricChanges = obs.Default.CounterVec(
		"cornet_reconcile_changes_total",
		"Change executions driven by the reconciler, by outcome.",
		"fleet", "outcome")
)
