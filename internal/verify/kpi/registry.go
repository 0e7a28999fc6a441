package kpi

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"cornet/internal/verify/stats"
)

// Group classifies KPIs by depth, matching Table 5: the scorecard group is
// the small network-wide roll-out set; levels 1-3 drill into increasingly
// detailed counters (FFA verification uses hundreds of KPIs).
type Group string

const (
	Scorecard Group = "scorecard"
	Level1    Group = "level-1"
	Level2    Group = "level-2"
	Level3    Group = "level-3"
)

// Definition is one registered KPI.
type Definition struct {
	Name  string
	Group Group
	Expr  *Expr
	// HigherIsBetter orients impact verdicts: throughput-style KPIs
	// improve upward, drop/failure-style KPIs improve downward.
	HigherIsBetter bool
	// CreatedMonth records when the definition was created or last
	// modified (months since epoch of the registry) — the churn telemetry
	// behind Fig. 6.
	CreatedMonth int
	Version      int
}

// Registry is a concurrency-safe KPI catalog supporting the continuous
// evolution of KPI equations across software releases (Section 3.5.1).
type Registry struct {
	mu   sync.RWMutex
	defs map[string]*Definition
	// churn[month] counts create/modify events, for Fig. 6.
	churn map[int]int
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{defs: make(map[string]*Definition), churn: make(map[int]int)}
}

// Define registers or updates a KPI. Updates must carry a strictly higher
// version (the paper's KPI equations change across major software releases
// and must be quickly modifiable). Every create/modify increments the
// month's churn counter.
func (r *Registry) Define(name string, group Group, equation string, higherIsBetter bool, month int) (*Definition, error) {
	if name == "" {
		return nil, fmt.Errorf("kpi: definition needs a name")
	}
	expr, err := Parse(equation)
	if err != nil {
		return nil, fmt.Errorf("kpi %q: %w", name, err)
	}
	switch group {
	case Scorecard, Level1, Level2, Level3:
	default:
		return nil, fmt.Errorf("kpi %q: unknown group %q", name, group)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	version := 1
	if prev, ok := r.defs[name]; ok {
		version = prev.Version + 1
	}
	def := &Definition{
		Name: name, Group: group, Expr: expr,
		HigherIsBetter: higherIsBetter, CreatedMonth: month, Version: version,
	}
	r.defs[name] = def
	r.churn[month]++
	return def, nil
}

// Get returns a definition by name.
func (r *Registry) Get(name string) (*Definition, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	d, ok := r.defs[name]
	return d, ok
}

// Len reports the number of definitions.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.defs)
}

// ByGroup returns the definitions of a group sorted by name. Passing the
// zero Group returns everything.
func (r *Registry) ByGroup(g Group) []*Definition {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []*Definition
	for _, d := range r.defs {
		if g == "" || d.Group == g {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Churn returns per-month create/modify counts (Fig. 6).
func (r *Registry) Churn() map[int]int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[int]int, len(r.churn))
	for k, v := range r.churn {
		out[k] = v
	}
	return out
}

// JoinHistogram reproduces a row of Table 5. A "query table" is one
// distinct combination of source tables materialized for a KPI group; it
// requires no join when built from a single source, a 2-way join from two
// sources, and so on. Tables counts distinct query tables (the paper's
// "Tables" column); NoJoin/TwoWay/ThreeWay partition them by join depth.
type JoinHistogram struct {
	KPIs     int
	Tables   int
	NoJoin   int
	TwoWay   int
	ThreeWay int
}

// JoinStats computes the join histogram for a group ("" = all groups, the
// Table 5 "All" row — combinations shared across groups are deduplicated).
func (r *Registry) JoinStats(g Group) JoinHistogram {
	defs := r.ByGroup(g)
	var h JoinHistogram
	combos := map[string]int{} // combo key -> source-table count
	for _, d := range defs {
		h.KPIs++
		var srcs []string
		for _, t := range d.Expr.Tables() {
			if t != "" {
				srcs = append(srcs, t)
			}
		}
		if len(srcs) == 0 {
			continue // unqualified counters form no query table
		}
		key := ""
		for _, s := range srcs {
			key += s + "+"
		}
		combos[key] = len(srcs)
	}
	h.Tables = len(combos)
	for _, n := range combos {
		switch n {
		case 1:
			h.NoJoin++
		case 2:
			h.TwoWay++
		default:
			h.ThreeWay++
		}
	}
	return h
}

// Aggregation selects how series aggregate across instances sharing a
// location/configuration attribute value (Section 3.5.1).
type Aggregation int

const (
	AggMedian Aggregation = iota
	AggAverage
	AggWeighted // weighted by a weight series (e.g. traffic volume)
)

// AggregateSeries combines per-instance KPI series into one series per
// attribute bucket. weights is only used by AggWeighted and maps instance
// to a weight series of equal length; missing weights default to 1.
// NaN samples (missing data) are skipped per timepoint.
func AggregateSeries(byInstance map[string][]float64, agg Aggregation, weights map[string][]float64) []float64 {
	length := 0
	for _, s := range byInstance {
		if len(s) > length {
			length = len(s)
		}
	}
	if length == 0 {
		return nil
	}
	out := make([]float64, length)
	for t := 0; t < length; t++ {
		var vals, ws []float64
		for inst, s := range byInstance {
			if t >= len(s) || math.IsNaN(s[t]) {
				continue
			}
			vals = append(vals, s[t])
			w := 1.0
			if weights != nil {
				if wseries, ok := weights[inst]; ok && t < len(wseries) && !math.IsNaN(wseries[t]) {
					w = wseries[t]
				}
			}
			ws = append(ws, w)
		}
		if len(vals) == 0 {
			out[t] = math.NaN()
			continue
		}
		switch agg {
		case AggMedian:
			out[t] = stats.Median(vals)
		case AggAverage:
			out[t] = stats.Mean(vals)
		case AggWeighted:
			var num, den float64
			for i, v := range vals {
				num += v * ws[i]
				den += ws[i]
			}
			if den == 0 {
				out[t] = math.NaN()
			} else {
				out[t] = num / den
			}
		}
	}
	return out
}
