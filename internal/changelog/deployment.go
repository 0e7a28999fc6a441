package changelog

import (
	"math"
	"math/rand"
	"time"
)

// This file simulates network-wide staggered deployments: the FFA ->
// crawl -> walk -> run progression of Fig. 1 and the with/without-CORNET
// comparison of Fig. 5 (compact plans with global view vs manual batch
// plans with long straggler tails), plus the §5.2 human-time-savings and
// roll-out time models.

// DeploymentSim parameterizes one network-wide roll-out simulation.
type DeploymentSim struct {
	Seed  int64
	Nodes int
	// FFADays is the first-field-application phase length in maintenance
	// windows; FFAFraction of nodes deploy during it.
	FFADays     int
	FFAFraction float64
	// AssessDays is the certification gap after FFA with no deployments.
	AssessDays int
	// Capacity is the maximum nodes deployable per window in the run phase.
	Capacity int
}

// CORNETCurve simulates a deployment planned by CORNET: after FFA and
// certification, the planner's conflict-free global schedule ramps at full
// capacity and finishes compactly (stragglers were pulled forward by the
// global view). Returns the cumulative fraction deployed per window.
func (d DeploymentSim) CORNETCurve() []float64 {
	rng := rand.New(rand.NewSource(d.Seed))
	return d.curve(rng, 1.0, 0.0)
}

// ManualCurve simulates the pre-CORNET batch process: operators manually
// discover conflict-free batches (utilization well below capacity, noisy),
// and a straggler tail of nodes keeps slipping to later windows.
func (d DeploymentSim) ManualCurve() []float64 {
	rng := rand.New(rand.NewSource(d.Seed + 1))
	return d.curve(rng, 0.55, 0.04)
}

// curve runs the phased simulation. utilization scales per-window
// throughput; slipProb makes scheduled nodes slip to later windows
// (stragglers).
func (d DeploymentSim) curve(rng *rand.Rand, utilization, slipProb float64) []float64 {
	if d.Nodes <= 0 {
		return nil
	}
	deployed := 0
	var out []float64
	push := func() { out = append(out, float64(deployed)/float64(d.Nodes)) }

	ffaTarget := int(math.Ceil(d.FFAFraction * float64(d.Nodes)))
	perFFA := ffaTarget / maxInt(d.FFADays, 1)
	if perFFA < 1 {
		perFFA = 1
	}
	for w := 0; w < d.FFADays && deployed < d.Nodes; w++ {
		deployed += minInt(perFFA, d.Nodes-deployed)
		push()
	}
	for w := 0; w < d.AssessDays; w++ {
		push()
	}
	// Ramp (walk) then run: capacity grows linearly over the first ramp
	// windows, then full throughput.
	ramp := 5
	window := 0
	slipped := 0
	for deployed < d.Nodes {
		capNow := d.Capacity
		if window < ramp {
			capNow = d.Capacity * (window + 1) / ramp
		}
		eff := int(float64(capNow) * utilization * (0.9 + 0.2*rng.Float64()))
		if eff < 1 {
			eff = 1
		}
		attempt := minInt(eff, d.Nodes-deployed)
		slips := 0
		if slipProb > 0 {
			for i := 0; i < attempt; i++ {
				if rng.Float64() < slipProb {
					slips++
				}
			}
		}
		deployed += attempt - slips
		slipped += slips
		// Slipped nodes retry with low priority: drain a few per window.
		if slipped > 0 {
			drain := minInt(slipped, maxInt(1, d.Capacity/20))
			deployed += drain
			slipped -= drain
		}
		if deployed > d.Nodes {
			deployed = d.Nodes
		}
		push()
		window++
		if window > 100000 {
			break // safety against pathological configs
		}
	}
	return out
}

// CompletionWindow returns the first window index at which the curve
// reaches the target fraction (e.g. 0.99), or -1 if it never does.
func CompletionWindow(curve []float64, target float64) int {
	for i, v := range curve {
		if v >= target {
			return i
		}
	}
	return -1
}

// TailLength measures the straggler tail: windows between reaching 90% and
// reaching ~100% (Fig. 5's "long tail" observation).
func TailLength(curve []float64) int {
	w90 := CompletionWindow(curve, 0.90)
	w100 := CompletionWindow(curve, 0.999)
	if w90 < 0 || w100 < 0 {
		return -1
	}
	return w100 - w90
}

// HumanTimeSavings models §5.2's operational-efficiency comparison: before
// CORNET operators manually discovered conflict-free batches (~1 hour per
// batch of batchSize nodes); with CORNET a single request returns the
// network-wide schedule in discovery time. Returns the fractional saving
// (e.g. 0.886 for 88.6%).
func HumanTimeSavings(nodes, batchSize int, discovery time.Duration) float64 {
	if nodes <= 0 || batchSize <= 0 {
		return 0
	}
	batches := (nodes + batchSize - 1) / batchSize
	manual := time.Duration(batches) * time.Hour
	if manual <= 0 {
		return 0
	}
	saving := 1 - float64(discovery)/float64(manual)
	if saving < 0 {
		return 0
	}
	return saving
}

// VerificationTimeSavings models §5.2's ~98% reduction in impact
// verification time: manual review of k KPIs across a attributes takes
// perKPIManual each; CORNET's automated verification takes measured time.
func VerificationTimeSavings(kpis, attrs int, perKPIManual, measured time.Duration) float64 {
	manual := time.Duration(kpis*maxInt(attrs, 1)) * perKPIManual
	if manual <= 0 {
		return 0
	}
	s := 1 - float64(measured)/float64(manual)
	if s < 0 {
		return 0
	}
	return s
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
