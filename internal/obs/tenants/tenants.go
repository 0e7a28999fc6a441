// Package tenants attributes serving and execution work to tenants: plan
// requests, cache hits and misses, warm starts, sheds, admission wait,
// solver wall time and nodes explored, and executed workflow blocks. The
// serving layer and the orchestrator record into the process-wide Default
// accountant; cmd/cornetd summarizes it at GET /api/tenants and the same
// counters are exported tenant-labeled as cornet_tenant_* metrics, giving
// the ROADMAP's multi-tenant north star its per-tenant cost picture.
package tenants

import (
	"sort"
	"sync"
	"time"

	"cornet/internal/obs"
)

// Usage is one tenant's accumulated account.
type Usage struct {
	// Tenant names the account.
	Tenant string `json:"tenant"`
	// PlanRequests counts served plan requests (cache hits included,
	// sheds excluded).
	PlanRequests int64 `json:"plan_requests"`
	// CacheHits and CacheMisses split the plan requests by cache outcome.
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	// WarmStarts counts solves seeded from a cached incumbent.
	WarmStarts int64 `json:"warm_starts"`
	// Sheds counts requests refused by admission control.
	Sheds int64 `json:"sheds"`
	// AdmissionWaitNS accumulates time spent queued in admission.
	AdmissionWaitNS int64 `json:"admission_wait_ns"`
	// SolveWallNS accumulates solver wall time attributed to the tenant
	// (singleflight followers and cache hits attribute zero).
	SolveWallNS int64 `json:"solve_wall_ns"`
	// NodesExplored accumulates branch-and-bound nodes attributed to the
	// tenant's solves.
	NodesExplored int64 `json:"nodes_explored"`
	// BlocksExecuted counts orchestrator building-block invocations run
	// under the tenant's changes.
	BlocksExecuted int64 `json:"blocks_executed"`
}

// Accountant aggregates per-tenant usage. Safe for concurrent use.
type Accountant struct {
	mu sync.Mutex
	m  map[string]*Usage

	metricPlans  *obs.CounterVec
	metricHits   *obs.CounterVec
	metricMisses *obs.CounterVec
	metricWarm   *obs.CounterVec
	metricSheds  *obs.CounterVec
	metricWait   *obs.CounterVec
	metricSolve  *obs.CounterVec
	metricNodes  *obs.CounterVec
	metricBlocks *obs.CounterVec
}

// Default is the process-wide accountant, mirroring obs.Default.
var Default = NewAccountant()

// NewAccountant returns an empty accountant with its tenant-labeled
// metrics registered in the process-wide obs registry.
func NewAccountant() *Accountant {
	return &Accountant{
		m: map[string]*Usage{},
		metricPlans: obs.Default.CounterVec("cornet_tenant_plan_requests_total",
			"Served plan requests by tenant.", "tenant"),
		metricHits: obs.Default.CounterVec("cornet_tenant_cache_hits_total",
			"Plan cache hits by tenant.", "tenant"),
		metricMisses: obs.Default.CounterVec("cornet_tenant_cache_misses_total",
			"Plan cache misses by tenant.", "tenant"),
		metricWarm: obs.Default.CounterVec("cornet_tenant_warm_starts_total",
			"Warm-started solves by tenant.", "tenant"),
		metricSheds: obs.Default.CounterVec("cornet_tenant_sheds_total",
			"Plan requests shed by admission control, by tenant.", "tenant"),
		metricWait: obs.Default.CounterVec("cornet_tenant_admission_wait_seconds_total",
			"Cumulative admission queue wait by tenant.", "tenant"),
		metricSolve: obs.Default.CounterVec("cornet_tenant_solve_seconds_total",
			"Cumulative solver wall time attributed by tenant.", "tenant"),
		metricNodes: obs.Default.CounterVec("cornet_tenant_nodes_total",
			"Branch-and-bound nodes explored, attributed by tenant.", "tenant"),
		metricBlocks: obs.Default.CounterVec("cornet_tenant_blocks_total",
			"Orchestrator building-block invocations by tenant.", "tenant"),
	}
}

// usageLocked returns (creating if needed) the tenant's account. Callers
// hold a.mu.
func (a *Accountant) usageLocked(tenant string) *Usage {
	u, ok := a.m[tenant]
	if !ok {
		u = &Usage{Tenant: tenant}
		a.m[tenant] = u
	}
	return u
}

// RecordPlan accounts one served plan request: its cache outcome, the
// admission wait, and — when this request led the solve — the solver wall
// time and nodes. Tenantless records are dropped.
func (a *Accountant) RecordPlan(tenant string, cacheHit, warm bool, wait, solveWall time.Duration, nodes int64) {
	if tenant == "" {
		return
	}
	a.mu.Lock()
	u := a.usageLocked(tenant)
	u.PlanRequests++
	if cacheHit {
		u.CacheHits++
	} else {
		u.CacheMisses++
	}
	if warm {
		u.WarmStarts++
	}
	u.AdmissionWaitNS += wait.Nanoseconds()
	u.SolveWallNS += solveWall.Nanoseconds()
	u.NodesExplored += nodes
	a.mu.Unlock()
	a.metricPlans.With(tenant).Inc()
	if cacheHit {
		a.metricHits.With(tenant).Inc()
	} else {
		a.metricMisses.With(tenant).Inc()
	}
	if warm {
		a.metricWarm.With(tenant).Inc()
	}
	if wait > 0 {
		a.metricWait.With(tenant).Add(wait.Seconds())
	}
	if solveWall > 0 {
		a.metricSolve.With(tenant).Add(solveWall.Seconds())
	}
	if nodes > 0 {
		a.metricNodes.With(tenant).Add(float64(nodes))
	}
}

// RecordShed accounts one request refused by admission control.
func (a *Accountant) RecordShed(tenant string) {
	if tenant == "" {
		return
	}
	a.mu.Lock()
	a.usageLocked(tenant).Sheds++
	a.mu.Unlock()
	a.metricSheds.With(tenant).Inc()
}

// RecordBlocks accounts n executed building blocks.
func (a *Accountant) RecordBlocks(tenant string, n int64) {
	if tenant == "" || n <= 0 {
		return
	}
	a.mu.Lock()
	a.usageLocked(tenant).BlocksExecuted += n
	a.mu.Unlock()
	a.metricBlocks.With(tenant).Add(float64(n))
}

// Snapshot returns a copy of every tenant's usage, sorted by tenant.
func (a *Accountant) Snapshot() []Usage {
	a.mu.Lock()
	out := make([]Usage, 0, len(a.m))
	for _, u := range a.m {
		out = append(out, *u)
	}
	a.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}
