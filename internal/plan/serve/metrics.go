package serve

import "cornet/internal/obs"

// Serving-layer instruments, registered on the process-wide registry so
// cmd/cornetd exposes them at GET /metrics alongside the HTTP and
// controller families.
var (
	metricCacheHits = obs.Default.Counter("cornet_plan_cache_hits_total",
		"Plan requests answered from the canonical plan cache without solving.")
	metricCacheMisses = obs.Default.Counter("cornet_plan_cache_misses_total",
		"Plan requests whose canonical fingerprint was not cached.")
	metricCacheEvictions = obs.Default.Counter("cornet_plan_cache_evictions_total",
		"Plan cache entries evicted by capacity or expired by TTL.")
	metricCacheEntries = obs.Default.Gauge("cornet_plan_cache_entries",
		"Plan cache resident entries.")
	metricShared = obs.Default.Counter("cornet_plan_singleflight_shared_total",
		"Plan requests that shared another in-flight identical solve instead of solving.")
	metricWarmStarts = obs.Default.Counter("cornet_plan_warm_starts_total",
		"Solves whose solver took the cached incumbent of a near-identical model as its starting bound (a seed offered and dropped as infeasible is not counted).")

	metricQueueDepth = obs.Default.Gauge("cornet_admission_queue_depth",
		"Plan requests queued for admission across all tenants.")
	metricWait = obs.Default.Histogram("cornet_admission_wait_seconds",
		"Time plan requests spent queued before a worker picked them up.", nil)
	metricShed = obs.Default.CounterVec("cornet_admission_shed_total",
		"Plan requests shed before solving, by reason.", "reason")
	metricServed = obs.Default.Counter("cornet_admission_served_total",
		"Plan requests that ran to completion through admission.")
)
