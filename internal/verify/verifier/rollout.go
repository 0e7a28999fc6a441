package verifier

// Roll-out monitoring (Section 5.2): as a change is deployed in staggered
// maintenance windows, CORNET continuously verifies the impact over the
// instances changed so far and recommends continue / halt — including the
// selective halt of only the problem configuration while the rest of the
// network keeps upgrading.

import (
	"context"
	"fmt"
	"sort"
)

// RolloutPlan describes a staggered deployment for monitoring: per
// maintenance window, the instances changed in it, plus each instance's
// change sample index in the data source.
type RolloutPlan struct {
	// Waves maps window index -> instance ids changed in that window.
	Waves map[int][]string
	// ChangeAt maps instance -> sample index of its change.
	ChangeAt map[string]int
}

// WaveDecision is the monitor's verdict after one wave.
type WaveDecision struct {
	Window int
	// StudySize is the cumulative changed-instance count verified.
	StudySize int
	Go        bool
	// HaltAttrValues lists attribute values to halt selectively
	// (attr -> degraded values); when Go is false and this is non-empty
	// the recommendation is a partial halt (Section 5.2's on-the-fly
	// optimized roll-out), otherwise a full halt.
	HaltAttrValues map[string][]string
	Report         *Report
}

// MonitorRollout verifies after each wave using the cumulative study
// group, stopping at the first full-halt recommendation. The rule's
// Attributes drive the selective-halt analysis. Cancelling ctx stops the
// monitor at the wave being verified: the decisions of the waves before it
// are returned with an error wrapping ctx.Err().
func (v *Verifier) MonitorRollout(ctx context.Context, rule Rule, plan RolloutPlan, control []string) ([]WaveDecision, error) {
	windows := make([]int, 0, len(plan.Waves))
	for w := range plan.Waves {
		windows = append(windows, w)
	}
	sort.Ints(windows)
	if len(windows) == 0 {
		return nil, fmt.Errorf("verifier: empty rollout plan")
	}
	var study []string
	var decisions []WaveDecision
	for _, w := range windows {
		study = append(study, plan.Waves[w]...)
		rep, err := v.VerifyContext(ctx, rule, study, plan.ChangeAt, control)
		if err != nil {
			return decisions, fmt.Errorf("verifier: wave %d: %w", w, err)
		}
		d := WaveDecision{Window: w, StudySize: len(study), Go: rep.Go, Report: rep}
		if !rep.Go {
			d.HaltAttrValues = degradedAttrValues(rep)
		}
		decisions = append(decisions, d)
		if !rep.Go && len(d.HaltAttrValues) == 0 {
			// Full halt: no attribute isolates the degradation.
			break
		}
	}
	return decisions, nil
}

// degradedAttrValues extracts, for each drill-down attribute, the values
// whose partition degraded while at least one other value stayed clean —
// the precondition for a selective halt.
func degradedAttrValues(rep *Report) map[string][]string {
	out := map[string][]string{}
	for _, res := range rep.Results {
		if !(res.Unexpected && res.Verdict == Degradation) {
			continue
		}
		for attr, perVal := range res.PerAttribute {
			var bad []string
			clean := 0
			for val, vd := range perVal {
				switch vd {
				case Degradation:
					bad = append(bad, val)
				case NoImpact, Improvement:
					clean++
				}
			}
			if len(bad) > 0 && clean > 0 {
				sort.Strings(bad)
				seen := map[string]bool{}
				for _, existing := range out[attr] {
					seen[existing] = true
				}
				for _, b := range bad {
					if !seen[b] {
						out[attr] = append(out[attr], b)
					}
				}
				sort.Strings(out[attr])
			}
		}
	}
	return out
}
