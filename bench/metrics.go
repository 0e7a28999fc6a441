package main

import (
	"fmt"
	"strings"
)

// metricDef names one metric. BENCHMARK.json lists the same names, units,
// directions and bounds; a test keeps the two from drifting.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline median by which an end-to-end
	// metric may worsen before it is a regression; per-layer metrics have none.
	Bound float64
	// Home is the workload whose request shape a per-layer metric is
	// measured on; "" means the workload the run names.
	Home string
}

// endToEnd are the metrics a user of cornetd sees, measured with tracing off.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "throughput_rps", Unit: "req/s", Better: "higher", Bound: 0.10},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
	{Name: "latency_p90_ms", Unit: "ms", Better: "lower", Bound: 0.15},
	{Name: "cpu_ms_per_req", Unit: "ms", Better: "lower", Bound: 0.25},
}

// perLayer are the metrics of single layers, measured in the traced run.
var perLayer = []metricDef{
	{Name: "cornetd.handler_us", Unit: "us", Better: "lower"},
	{Name: "cornetd.http_overhead_us", Unit: "us", Better: "lower"},
	{Name: "cornetd.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "cornetd.response_bytes", Unit: "B", Better: "lower"},
	{Name: "cornetd.latency_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "cornetd.peak_rss_mb", Unit: "MiB", Better: "lower"},
	{Name: "inventory.filter_us", Unit: "us", Better: "lower", Home: "plan_hit"},
	{Name: "inventory.subset_us", Unit: "us", Better: "lower", Home: "plan_hit"},
	{Name: "intent.parse_us", Unit: "us", Better: "lower", Home: "plan_hit"},
	{Name: "translate.build_us", Unit: "us", Better: "lower", Home: "plan_hit"},
	{Name: "translate.build_allocs", Unit: "allocs", Better: "lower", Home: "plan_hit"},
	{Name: "model.fingerprint_us", Unit: "us", Better: "lower", Home: "plan_hit"},
	{Name: "model.fingerprint_allocs", Unit: "allocs", Better: "lower", Home: "plan_hit"},
	{Name: "model.item_signatures_us", Unit: "us", Better: "lower", Home: "plan_miss"},
	{Name: "cache.get_us", Unit: "us", Better: "lower", Home: "plan_hit"},
	{Name: "cache.put_us", Unit: "us", Better: "lower", Home: "plan_miss"},
	{Name: "cache.hit_ratio", Unit: "ratio", Better: "higher", Home: "plan_hit"},
	{Name: "cache.evictions", Unit: "count", Better: "lower", Home: "plan_miss"},
	{Name: "serve.plan_hit_us", Unit: "us", Better: "lower", Home: "plan_hit"},
	{Name: "serve.plan_miss_ms", Unit: "ms", Better: "lower", Home: "plan_miss"},
	{Name: "serve.admission_wait_us", Unit: "us", Better: "lower", Home: "plan_miss"},
	{Name: "serve.warm_ratio", Unit: "ratio", Better: "higher", Home: "plan_miss"},
	{Name: "serve.shed_count", Unit: "count", Better: "lower", Home: "plan_miss"},
	{Name: "engine.run_plan_ms", Unit: "ms", Better: "lower", Home: "plan_miss"},
	{Name: "engine.solve_wall_ms", Unit: "ms", Better: "lower", Home: "plan_miss"},
	{Name: "engine.plan_objective", Unit: "cost", Better: "lower", Home: "plan_miss"},
	{Name: "solver.nodes_per_request", Unit: "count", Better: "lower", Home: "plan_miss"},
	{Name: "solver.nodes_per_sec", Unit: "1/s", Better: "higher", Home: "plan_miss"},
	{Name: "solver.steals_per_request", Unit: "count", Better: "lower", Home: "plan_miss"},
	{Name: "solver.timed_out_ratio", Unit: "ratio", Better: "lower", Home: "plan_miss"},
	{Name: "compose.delta_build_us", Unit: "us", Better: "lower", Home: "exec_composed"},
	{Name: "compose.validate_us", Unit: "us", Better: "lower", Home: "exec_composed"},
	{Name: "compose.merge_us", Unit: "us", Better: "lower", Home: "exec_composed"},
	{Name: "compose.window_wait_ms", Unit: "ms", Better: "lower", Home: "exec_composed"},
	{Name: "compose.members_per_generation", Unit: "count", Better: "higher", Home: "exec_composed"},
	{Name: "compose.conflict_count", Unit: "count", Better: "lower", Home: "exec_composed"},
	{Name: "orchestrator.execute_us", Unit: "us", Better: "lower", Home: "exec_plain"},
	{Name: "orchestrator.dispatch_ms", Unit: "ms", Better: "lower", Home: "exec_composed"},
	{Name: "orchestrator.blocks_per_change", Unit: "count", Better: "lower", Home: "exec_plain"},
	{Name: "orchestrator.block_failed_count", Unit: "count", Better: "lower", Home: "exec_plain"},
	{Name: "testbed.invoke_us", Unit: "us", Better: "lower", Home: "exec_plain"},
	{Name: "testbed.invoke_count_per_req", Unit: "count", Better: "lower", Home: "exec_plain"},
	{Name: "obs.events_per_req", Unit: "count", Better: "lower", Home: "exec_plain"},
	{Name: "obs.events_publish_us", Unit: "us", Better: "lower", Home: "exec_plain"},
	{Name: "obs.events_dropped", Unit: "count", Better: "lower", Home: "exec_plain"},
	{Name: "replay.request_us", Unit: "us", Better: "lower"},
	{Name: "replay.residual_pct", Unit: "%", Better: "lower"},
	{Name: "replay.vs_handler_pct", Unit: "%", Better: "lower"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// newResult pairs values with their definitions; a definition without a
// value, or a value without a definition, is a bug in the benchmark.
func newResult(defs []metricDef, values map[string]float64) (*result, error) {
	r := &result{Metrics: make(map[string]metric, len(defs))}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		r.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	if len(values) != len(defs) {
		return nil, fmt.Errorf("%d values for %d metric definitions", len(values), len(defs))
	}
	return r, nil
}

// ms and us convert span nanoseconds.
const (
	nsPerUS = 1e3
	nsPerMS = 1e6
)

// spansOf selects the durations (ns) of spans called name whose request id
// starts with reqPrefix — the request ids name the workload shape.
func spansOf(spans []span, name, reqPrefix string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name && strings.HasPrefix(s.Req, reqPrefix) {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

// residualPct is the share of the named root spans their children do not
// cover; self is selfTimes(spans).
func residualPct(spans []span, self map[int]int64, root string) float64 {
	var uncovered, total int64
	for _, s := range spans {
		if s.Name == root {
			uncovered += self[s.ID]
			total += s.dur()
		}
	}
	if total == 0 {
		return 0
	}
	return 100 * float64(uncovered) / float64(total)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func sum(xs []float64) float64 { return mean(xs) * float64(len(xs)) }

// layerValues turns the replay's spans and counts into the per-layer
// metrics that do not depend on the named workload.
func layerValues(spans []span, c *counts) map[string]float64 {
	p50 := func(name, prefix string, per float64) float64 {
		return percentile(spansOf(spans, name, prefix), 50) / per
	}
	const hit, miss, exec, comp, gen = "hit-", "miss-", "exec-", "comp-", "generation-"
	executes := float64(c.executes)
	return map[string]float64{
		"inventory.filter_us":       p50("inventory.filter", hit, nsPerUS),
		"inventory.subset_us":       p50("inventory.subset", hit, nsPerUS),
		"intent.parse_us":           p50("intent.parse", hit, nsPerUS),
		"translate.build_us":        p50("translate.build", hit, nsPerUS),
		"translate.build_allocs":    c.buildAllocs,
		"model.fingerprint_us":      p50("model.fingerprint", hit, nsPerUS),
		"model.fingerprint_allocs":  c.fingerprintAllocs,
		"model.item_signatures_us":  p50("model.item_signatures", miss, nsPerUS),
		"cache.get_us":              p50("cache.get", hit, nsPerUS),
		"cache.put_us":              p50("cache.put", miss, nsPerUS),
		"cache.hit_ratio":           ratio(float64(c.hitStats.Hits), float64(c.hitStats.Hits+c.hitStats.Misses)),
		"cache.evictions":           float64(c.missStats.Evictions),
		"serve.plan_hit_us":         p50("serve.plan", hit, nsPerUS),
		"serve.plan_miss_ms":        p50("serve.plan", miss, nsPerMS),
		"serve.admission_wait_us":   percentile(c.waitUS, 50),
		"serve.warm_ratio":          ratio(float64(c.warm), float64(c.missRequests)),
		"serve.shed_count":          float64(c.sheds),
		"engine.run_plan_ms":        p50("engine.run_plan", miss, nsPerMS),
		"engine.solve_wall_ms":      percentile(c.wallMS, 50),
		"engine.plan_objective":     mean(c.objectives),
		"solver.nodes_per_request":  mean(c.nodes),
		"solver.nodes_per_sec":      ratio(sum(c.nodes), sum(c.wallMS)/1e3),
		"solver.steals_per_request": mean(c.steals),
		"solver.timed_out_ratio":    ratio(float64(c.timedOut), float64(c.solves)),

		"compose.delta_build_us":         p50("compose.delta_build", comp, nsPerUS),
		"compose.validate_us":            p50("compose.validate", gen, nsPerUS),
		"compose.merge_us":               p50("compose.merge", gen, nsPerUS),
		"compose.window_wait_ms":         p50("compose.window_wait", gen, nsPerMS),
		"compose.members_per_generation": ratio(float64(c.members), float64(c.generations)),
		"compose.conflict_count":         float64(c.conflicts),

		"orchestrator.execute_us":         p50("orchestrator.execute", exec, nsPerUS),
		"orchestrator.dispatch_ms":        p50("orchestrator.dispatch", gen, nsPerMS),
		"orchestrator.blocks_per_change":  ratio(float64(c.invokes), executes),
		"orchestrator.block_failed_count": float64(c.blocksFailed),
		"testbed.invoke_us":               p50("testbed.invoke", exec, nsPerUS),
		"testbed.invoke_count_per_req":    ratio(float64(len(spansOf(spans, "testbed.invoke", exec))), executes),
		"obs.events_per_req":              ratio(float64(c.events), executes),
		"obs.events_publish_us":           p50("obs.events_publish", "", nsPerUS),
		"obs.events_dropped":              float64(c.dropped),
	}
}
