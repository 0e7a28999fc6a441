// Package changelog generates and analyzes synthetic change-activity
// records: the substrate for Table 1 (change distribution and durations),
// Table 6 (duration reform with CORNET), Fig. 1/5 (staggered network-wide
// deployment curves), Fig. 12 (change-duration histogram across scheduling
// requests), and the ticketing-system conflict tables consumed by the
// schedule planner. Its ChangeType also classifies the drift the
// reconciler repairs; the audit journal of changes the running system
// made lives with the reconciler (internal/reconcile).
package changelog

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// ChangeType enumerates the four change classes of Table 1.
type ChangeType string

// The four change classes of Table 1: software upgrades and configuration
// changes are automatable through CORNET workflows; node retuning and
// construction work are operator-driven activities the planner schedules
// around.
const (
	SoftwareUpgrade  ChangeType = "software-upgrade"
	ConfigChange     ChangeType = "config-change"
	NodeRetuning     ChangeType = "node-retuning"
	ConstructionWork ChangeType = "construction-work"
)

// Types lists all change types in Table 1 order.
func Types() []ChangeType {
	return []ChangeType{SoftwareUpgrade, ConfigChange, NodeRetuning, ConstructionWork}
}

// Record is one change activity on one node.
type Record struct {
	ID         string
	Node       string
	Type       ChangeType
	StartMW    int // maintenance-window index
	DurationMW int // duration in maintenance windows
}

// typeProfile models each change type's share and duration distribution.
// Shares follow Table 1 (24.67 / 65.82 / 1.14 / 8.37 %); durations are
// lognormal-style with parameters tuned so the generated means approximate
// the paper's (1.92 / 1.66 / 3.82 / 3.01 maintenance windows). The
// withCORNET flag narrows construction-work's spread per Table 6 (operators
// reserving week-long windows switch to per-night windows).
type typeProfile struct {
	share    float64
	mu       float64 // lognormal location of (duration - 1)
	sigma    float64
	sigmaOld float64 // pre-CORNET spread (Table 6)
}

var profiles = map[ChangeType]typeProfile{
	SoftwareUpgrade:  {share: 0.2467, mu: -0.6, sigma: 1.15, sigmaOld: 1.25},
	ConfigChange:     {share: 0.6582, mu: -1.0, sigma: 1.05, sigmaOld: 1.25},
	NodeRetuning:     {share: 0.0114, mu: 0.6, sigma: 0.95, sigmaOld: 1.1},
	ConstructionWork: {share: 0.0837, mu: 0.4, sigma: 1.0, sigmaOld: 1.6},
}

// GenConfig parameterizes a change-log generation run.
type GenConfig struct {
	Seed int64
	// Nodes is the fleet the changes apply to.
	Nodes []string
	// Days is the observation period in maintenance windows.
	Days int
	// DailyChangeRate is the fraction of fleet size executed per day
	// (the paper observes 10-20%).
	DailyChangeRate float64
	// WithCORNET selects the post-reform duration distributions (Table 6).
	WithCORNET bool
}

// Generate produces a synthetic change log.
func Generate(cfg GenConfig) ([]Record, error) {
	if len(cfg.Nodes) == 0 || cfg.Days <= 0 {
		return nil, fmt.Errorf("changelog: need nodes and positive days")
	}
	if cfg.DailyChangeRate <= 0 {
		cfg.DailyChangeRate = 0.15
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	perDay := int(float64(len(cfg.Nodes)) * cfg.DailyChangeRate)
	if perDay < 1 {
		perDay = 1
	}
	var out []Record
	id := 0
	for day := 0; day < cfg.Days; day++ {
		for k := 0; k < perDay; k++ {
			node := cfg.Nodes[rng.Intn(len(cfg.Nodes))]
			ct := sampleType(rng)
			out = append(out, Record{
				ID:         fmt.Sprintf("CHG%09d", id),
				Node:       node,
				Type:       ct,
				StartMW:    day,
				DurationMW: sampleDuration(rng, ct, cfg.WithCORNET),
			})
			id++
		}
	}
	return out, nil
}

func sampleType(rng *rand.Rand) ChangeType {
	r := rng.Float64()
	acc := 0.0
	for _, ct := range Types() {
		acc += profiles[ct].share
		if r < acc {
			return ct
		}
	}
	return ConstructionWork
}

func sampleDuration(rng *rand.Rand, ct ChangeType, withCORNET bool) int {
	p := profiles[ct]
	sigma := p.sigma
	if !withCORNET {
		sigma = p.sigmaOld
	}
	d := 1 + math.Exp(p.mu+sigma*rng.NormFloat64())
	n := int(math.Round(d))
	if n < 1 {
		n = 1
	}
	return n
}

// TypeStats summarizes one change type for Table 1 / Table 6.
type TypeStats struct {
	Type      ChangeType
	Count     int
	Share     float64 // fraction of all activities
	AvgDur    float64 // maintenance windows per node
	StdDevDur float64
	MedianDur float64
}

// Distribution computes the per-type statistics of a change log.
func Distribution(records []Record) []TypeStats {
	byType := map[ChangeType][]float64{}
	for _, r := range records {
		byType[r.Type] = append(byType[r.Type], float64(r.DurationMW))
	}
	total := len(records)
	var out []TypeStats
	for _, ct := range Types() {
		ds := byType[ct]
		st := TypeStats{Type: ct, Count: len(ds)}
		if total > 0 {
			st.Share = float64(len(ds)) / float64(total)
		}
		if len(ds) > 0 {
			st.AvgDur = mean(ds)
			st.StdDevDur = stddev(ds)
			st.MedianDur = median(ds)
		}
		out = append(out, st)
	}
	return out
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func stddev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := mean(xs)
	s := 0.0
	for _, x := range xs {
		s += (x - m) * (x - m)
	}
	return math.Sqrt(s / float64(len(xs)-1))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// DurationHistogram buckets records by duration (Fig. 12): the returned
// map is duration-in-MWs -> request count.
func DurationHistogram(records []Record) map[int]int {
	out := map[int]int{}
	for _, r := range records {
		out[r.DurationMW]++
	}
	return out
}
