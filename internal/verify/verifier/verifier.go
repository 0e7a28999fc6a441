// Package verifier implements CORNET's change impact verifier (Section
// 3.5): statistical pre/post comparison of KPI time-series between a study
// group (changed instances) and a control group (unchanged), with
// verification-rule composition across KPIs, multiple timescales, and
// location/configuration attribute drill-down.
//
// Method (Section 3.5.2): a robust regression S = alpha + beta*C is fitted
// between study and control aggregates over the pre-change window; the
// post-change control series predicts the counterfactual study series; the
// prediction is compared to the measured study series with the robust
// rank-order test of medians. Staggered roll-outs are handled by
// time-aligning each study instance around its own change time.
package verifier

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"cornet/internal/inventory"
	"cornet/internal/obs"
	"cornet/internal/obs/events"
	"cornet/internal/verify/kpi"
	"cornet/internal/verify/stats"
)

// DataSource supplies raw counter series. kpigen.Dataset satisfies it.
type DataSource interface {
	Series(instance, counter string) []float64
}

// Verdict classifies the impact of a change on one KPI.
type Verdict string

const (
	Improvement  Verdict = "improvement"
	Degradation  Verdict = "degradation"
	NoImpact     Verdict = "no-impact"
	Inconclusive Verdict = "inconclusive" // not enough data
)

// Rule composes the verification for one change: which KPIs to test, the
// expectation per KPI, the aggregation attributes to drill into, and the
// post-change timescales to scan (Section 3.5 supports minutes for massive
// degradations through days for subtle impacts).
type Rule struct {
	Name string
	// KPIs names registry definitions; empty selects a whole group.
	KPIs  []string
	Group kpi.Group
	// Expect maps KPI name to the expected verdict; unexpected outcomes
	// are flagged (e.g. an upgrade expected to improve voice quality).
	Expect map[string]Verdict
	// Attributes are the location/configuration aggregation attributes to
	// drill down into (carrier frequency, hw version, market...).
	Attributes []string
	// Timescales are post-change window lengths in samples.
	Timescales []int
	// PreWindow is the pre-change window length in samples.
	PreWindow int
	// Alpha is the significance level (default 0.01).
	Alpha float64
	// MinShift is the practical-significance floor: relative median shifts
	// smaller than this are reported as no-impact even when statistically
	// significant (large pre/post windows make sub-percent noise shifts
	// significant; operations teams only act on material ones).
	MinShift float64
	// Aggregation combines instances (default median).
	Aggregation kpi.Aggregation
}

// KPIResult is the outcome for one KPI at the coarsest aggregate.
type KPIResult struct {
	KPI        string
	Verdict    Verdict
	Expected   Verdict
	Unexpected bool
	// PValue and Shift quantify the strongest (most significant) timescale.
	PValue    float64
	Shift     float64 // relative median shift measured vs predicted
	Timescale int
	// PerAttribute drills the verdict into attribute values:
	// attr -> value -> verdict.
	PerAttribute map[string]map[string]Verdict
}

// Report is the full verification outcome for a change.
type Report struct {
	Rule    string
	Study   []string
	Control []string
	Results []KPIResult
	Elapsed time.Duration
	// Go recommends continuing the roll-out: true when no unexpected
	// degradation was detected (the go/no-go decision of Section 2.1).
	Go bool
}

// Verifier wires the registry, data source, and inventory.
type Verifier struct {
	Registry *kpi.Registry
	Data     DataSource
	Inv      *inventory.Inventory
	// Workers bounds parallel KPI evaluation (default: 4).
	Workers int
}

// VerifyContext runs a rule for a study group that changed at the given
// per-instance sample indexes, against a control group. Cancelling ctx
// stops the KPI worker pool between KPI evaluations and returns an error
// wrapping ctx.Err().
func (v *Verifier) VerifyContext(ctx context.Context, rule Rule, study []string, changeAt map[string]int, control []string) (*Report, error) {
	start := time.Now()
	ctx, vsp := obs.StartSpan(ctx, "verify.rule")
	vsp.SetAttr("rule", rule.Name)
	vsp.SetAttr("study", len(study))
	vsp.SetAttr("control", len(control))
	defer vsp.End()
	if len(study) == 0 || len(control) == 0 {
		err := fmt.Errorf("verifier: study and control groups must be non-empty")
		vsp.Fail(err)
		return nil, err
	}
	defs, err := v.resolveKPIs(rule)
	if err != nil {
		return nil, err
	}
	if rule.PreWindow <= 0 {
		return nil, fmt.Errorf("verifier: rule needs a positive PreWindow")
	}
	if len(rule.Timescales) == 0 {
		return nil, fmt.Errorf("verifier: rule needs at least one timescale")
	}
	alpha := rule.Alpha
	if alpha <= 0 {
		alpha = 0.01
	}
	maxPost := 0
	for _, ts := range rule.Timescales {
		if ts <= 0 {
			return nil, fmt.Errorf("verifier: non-positive timescale %d", ts)
		}
		if ts > maxPost {
			maxPost = ts
		}
	}

	// Control instances have no change; align them to the median study
	// change time so windows compare like with like.
	ctrlChange := map[string]int{}
	med := medianChange(changeAt)
	for _, id := range control {
		ctrlChange[id] = med
	}

	report := &Report{Rule: rule.Name, Study: append([]string(nil), study...),
		Control: append([]string(nil), control...), Go: true}

	type job struct {
		idx int
		def *kpi.Definition
	}
	results := make([]KPIResult, len(defs))
	workers := v.Workers
	if workers <= 0 {
		workers = 4
	}
	jobs := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				if ctx.Err() != nil {
					continue // drain the queue without doing the work
				}
				_, ksp := obs.StartSpan(ctx, "verify.kpi."+j.def.Name)
				res := v.verifyKPI(j.def, rule, study, changeAt, control, ctrlChange, maxPost, alpha)
				ksp.SetAttr("verdict", string(res.Verdict))
				ksp.SetAttr("p_value", res.PValue)
				ksp.SetAttr("shift", res.Shift)
				if res.Unexpected {
					ksp.SetAttr("unexpected", true)
				}
				ksp.End()
				metricVerifyKPIs.With(string(res.Verdict)).Inc()
				results[j.idx] = res
			}
		}()
	}
feed:
	for i, def := range defs {
		select {
		case jobs <- job{i, def}:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		err = fmt.Errorf("verifier: %w", err)
		vsp.Fail(err)
		return nil, err
	}

	for _, r := range results {
		if r.Unexpected && r.Verdict == Degradation {
			report.Go = false
		}
	}
	report.Results = results
	report.Elapsed = time.Since(start)
	decision := "go"
	if !report.Go {
		decision = "no-go"
	}
	vsp.SetAttr("go", report.Go)
	vsp.SetAttr("kpis", len(results))
	metricVerifyRuns.With(decision).Inc()
	metricVerifyWall.With(rule.Name).Observe(report.Elapsed.Seconds())
	events.Default.Publish(events.Event{
		Type: events.TypeVerifyReport, Source: "verifier",
		ChangeID: obs.ChangeID(ctx), Tenant: obs.Tenant(ctx),
		Fields: map[string]any{
			"rule": rule.Name, "go": report.Go, "kpis": len(results),
			"study": len(study), "control": len(control),
			"wall_ns": report.Elapsed.Nanoseconds(),
		},
	})
	return report, nil
}

func (v *Verifier) resolveKPIs(rule Rule) ([]*kpi.Definition, error) {
	if len(rule.KPIs) > 0 {
		defs := make([]*kpi.Definition, 0, len(rule.KPIs))
		for _, name := range rule.KPIs {
			d, ok := v.Registry.Get(name)
			if !ok {
				return nil, fmt.Errorf("verifier: unknown KPI %q", name)
			}
			defs = append(defs, d)
		}
		return defs, nil
	}
	defs := v.Registry.ByGroup(rule.Group)
	if len(defs) == 0 {
		return nil, fmt.Errorf("verifier: rule selects no KPIs")
	}
	return defs, nil
}

// verifyKPI runs the full study/control comparison for one KPI.
func (v *Verifier) verifyKPI(def *kpi.Definition, rule Rule, study []string, changeAt map[string]int,
	control []string, ctrlChange map[string]int, maxPost int, alpha float64) KPIResult {
	res := KPIResult{KPI: def.Name, Verdict: Inconclusive, PValue: 1}
	if exp, ok := rule.Expect[def.Name]; ok {
		res.Expected = exp
	} else {
		res.Expected = NoImpact
	}

	// Compute each instance's aligned KPI window once; the top-level
	// comparison and every attribute drill-down aggregate from this cache
	// instead of re-evaluating counter series.
	pre := rule.PreWindow
	studyWin := v.windows(def, study, changeAt, pre, maxPost)
	ctrlWin := v.windows(def, control, ctrlChange, pre, maxPost)
	ctrlAgg := aggregateWindows(ctrlWin, control, rule.Aggregation, pre+maxPost)
	studyAgg := aggregateWindows(studyWin, study, rule.Aggregation, pre+maxPost)

	verdict, p, shift, ts := v.compare(def, rule, studyAgg, ctrlAgg, alpha)
	res.Verdict, res.PValue, res.Shift, res.Timescale = verdict, p, shift, ts
	res.Unexpected = res.Verdict != res.Expected && res.Verdict != Inconclusive

	// Attribute drill-down: partition the study group by each aggregation
	// attribute and re-verify per value, surfacing which configuration
	// contributes the impact (the per-carrier-frequency insight of Fig. 2
	// and the selective-halt capability of Section 5.2).
	if len(rule.Attributes) > 0 && v.Inv != nil {
		res.PerAttribute = map[string]map[string]Verdict{}
		for _, attr := range rule.Attributes {
			parts := v.partition(study, attr)
			if len(parts) == 0 {
				continue
			}
			perVal := map[string]Verdict{}
			vals := make([]string, 0, len(parts))
			for val := range parts {
				vals = append(vals, val)
			}
			sort.Strings(vals)
			for _, val := range vals {
				subAgg := aggregateWindows(studyWin, parts[val], rule.Aggregation, pre+maxPost)
				vd, _, _, _ := v.compare(def, rule, subAgg, ctrlAgg, alpha)
				perVal[val] = vd
			}
			res.PerAttribute[attr] = perVal
		}
	}
	return res
}

// partition splits instances by an attribute value.
func (v *Verifier) partition(ids []string, attr string) map[string][]string {
	out := map[string][]string{}
	for _, id := range ids {
		e, ok := v.Inv.Get(id)
		if !ok {
			continue
		}
		for _, val := range e.Values(attr) {
			out[val] = append(out[val], id)
		}
	}
	return out
}

// windows evaluates the KPI per instance and extracts the aligned
// [change-pre, change+post) window. Instances with missing counters or
// out-of-range change times are skipped.
func (v *Verifier) windows(def *kpi.Definition, ids []string, changeAt map[string]int,
	pre, post int) map[string][]float64 {
	out := map[string][]float64{}
	for _, id := range ids {
		t, ok := changeAt[id]
		if !ok {
			continue
		}
		counterSeries := map[string][]float64{}
		missing := false
		for _, c := range def.Expr.Counters() {
			s := v.Data.Series(id, c)
			if s == nil {
				missing = true
				break
			}
			counterSeries[c] = s
		}
		if missing {
			continue
		}
		s := def.Expr.EvalSeries(counterSeries)
		if s == nil || t-pre < 0 || t+post > len(s) {
			continue
		}
		out[id] = s[t-pre : t+post]
	}
	return out
}

// aggregateWindows combines the aligned windows of a subset of instances
// into one series, skipping missing-data samples per timepoint.
func aggregateWindows(windows map[string][]float64, subset []string,
	agg kpi.Aggregation, width int) []float64 {
	byInstance := map[string][]float64{}
	for _, id := range subset {
		if w, ok := windows[id]; ok {
			byInstance[id] = w
		}
	}
	if len(byInstance) == 0 {
		return nil
	}
	out := kpi.AggregateSeries(byInstance, agg, nil)
	if len(out) != width {
		return nil
	}
	return out
}

// compare runs the aligned regression + rank-order comparison over every
// timescale and returns the strongest outcome.
func (v *Verifier) compare(def *kpi.Definition, rule Rule, studyAgg, ctrlAgg []float64,
	alpha float64) (Verdict, float64, float64, int) {
	if studyAgg == nil || ctrlAgg == nil {
		return Inconclusive, 1, 0, 0
	}
	pre := rule.PreWindow
	// Robust regression S = alpha + beta*C over the pre window.
	preC, preS := dropNaNPairs(ctrlAgg[:pre], studyAgg[:pre])
	a, b, err := stats.TheilSen(preC, preS)
	if err != nil {
		return Inconclusive, 1, 0, 0
	}
	bestP, bestShift, bestTS := 1.0, 0.0, 0
	verdict := NoImpact
	for _, ts := range rule.Timescales {
		if pre+ts > len(studyAgg) {
			ts = len(studyAgg) - pre
		}
		if ts < 3 {
			continue
		}
		measured := studyAgg[pre : pre+ts]
		predicted := make([]float64, ts)
		for i := 0; i < ts; i++ {
			predicted[i] = a + b*ctrlAgg[pre+i]
		}
		predicted, measured = dropNaNPairs(predicted, measured)
		r, err := stats.RobustRankOrder(predicted, measured)
		if err != nil {
			continue
		}
		if r.PValue < bestP {
			bestP = r.PValue
			bestTS = ts
			if r.MedianA != 0 {
				bestShift = (r.MedianB - r.MedianA) / math.Abs(r.MedianA)
			} else {
				bestShift = r.MedianB - r.MedianA
			}
			material := rule.MinShift <= 0 || math.Abs(bestShift) >= rule.MinShift
			if r.Significant(alpha) && material {
				up := r.MedianB > r.MedianA
				if up == def.HigherIsBetter {
					verdict = Improvement
				} else {
					verdict = Degradation
				}
			} else {
				verdict = NoImpact
			}
		}
	}
	if bestTS == 0 {
		return Inconclusive, 1, 0, 0
	}
	return verdict, bestP, bestShift, bestTS
}

func dropNaNPairs(a, b []float64) ([]float64, []float64) {
	var oa, ob []float64
	for i := range a {
		if !math.IsNaN(a[i]) && !math.IsNaN(b[i]) {
			oa = append(oa, a[i])
			ob = append(ob, b[i])
		}
	}
	return oa, ob
}

func medianChange(changeAt map[string]int) int {
	if len(changeAt) == 0 {
		return 0
	}
	vals := make([]float64, 0, len(changeAt))
	for _, t := range changeAt {
		vals = append(vals, float64(t))
	}
	return int(stats.Median(vals))
}

// Summary renders a compact textual report for operations review.
func (r *Report) Summary() string {
	out := fmt.Sprintf("rule %s: study=%d control=%d go=%v (%s)\n",
		r.Rule, len(r.Study), len(r.Control), r.Go, r.Elapsed.Round(time.Millisecond))
	for _, res := range r.Results {
		flag := ""
		if res.Unexpected {
			flag = "  << UNEXPECTED"
		}
		out += fmt.Sprintf("  %-24s %-12s (expected %-12s p=%.4f shift=%+.1f%% ts=%d)%s\n",
			res.KPI, res.Verdict, res.Expected, res.PValue, 100*res.Shift, res.Timescale, flag)
	}
	return out
}

// CountVerdicts tallies verdicts across results.
func (r *Report) CountVerdicts() map[Verdict]int {
	out := map[Verdict]int{}
	for _, res := range r.Results {
		out[res.Verdict]++
	}
	return out
}
