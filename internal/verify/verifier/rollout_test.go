package verifier

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"cornet/internal/inventory"
	"cornet/internal/kpigen"
	"cornet/internal/verify/kpi"
)

// rolloutFixture builds a 3-wave staggered deployment with optional
// degradation injected from a given wave onward, restricted to one
// hardware version when selective is true.
func rolloutFixture(t *testing.T, degradeFromWave int, selective bool) (*Verifier, RolloutPlan, []string) {
	t.Helper()
	reg := kpi.NewRegistry()
	if _, err := reg.Define("kpi", kpi.Scorecard, "100 * success / attempts", true, 0); err != nil {
		t.Fatal(err)
	}
	inv := inventory.New()
	plan := RolloutPlan{Waves: map[int][]string{}, ChangeAt: map[string]int{}}
	var all, control []string
	var impacts []kpigen.Impact
	spd := 24
	for wave := 0; wave < 3; wave++ {
		for k := 0; k < 6; k++ {
			id := fmt.Sprintf("w%d-%d", wave, k)
			hw := fmt.Sprintf("hw%d", k%2)
			inv.MustAdd(&inventory.Element{ID: id, Attributes: map[string]string{
				inventory.AttrHWVersion: hw,
			}})
			plan.Waves[wave] = append(plan.Waves[wave], id)
			at := (6 + wave) * spd
			plan.ChangeAt[id] = at
			all = append(all, id)
			if degradeFromWave >= 0 && wave >= degradeFromWave {
				if !selective || hw == "hw1" {
					impacts = append(impacts, kpigen.Impact{
						Instance: id, Counter: "success", At: at, Factor: 0.6,
					})
				}
			}
		}
	}
	for k := 0; k < 8; k++ {
		id := fmt.Sprintf("ctl-%d", k)
		control = append(control, id)
		all = append(all, id)
		inv.MustAdd(&inventory.Element{ID: id})
	}
	ds, err := kpigen.Generate(all, kpigen.Config{
		Seed: 17, Days: 16, SamplesPerDay: spd,
		Counters: []kpigen.CounterSpec{
			{Name: "success", Base: 950, DailyAmplitude: 0.35, Noise: 0.05},
			{Name: "attempts", Base: 1000, DailyAmplitude: 0.35, Noise: 0.05},
		},
	}, impacts)
	if err != nil {
		t.Fatal(err)
	}
	return &Verifier{Registry: reg, Data: ds, Inv: inv}, plan, control
}

func rolloutRule() Rule {
	return Rule{
		Name: "rollout", KPIs: []string{"kpi"},
		Attributes: []string{inventory.AttrHWVersion},
		Timescales: []int{48, 96}, PreWindow: 96,
		Alpha: 0.001, MinShift: 0.03,
	}
}

func TestMonitorRolloutCleanContinues(t *testing.T) {
	v, plan, control := rolloutFixture(t, -1, false)
	decisions, err := v.MonitorRollout(context.Background(), rolloutRule(), plan, control)
	if err != nil {
		t.Fatal(err)
	}
	if len(decisions) != 3 {
		t.Fatalf("decisions = %d", len(decisions))
	}
	for _, d := range decisions {
		if !d.Go {
			t.Fatalf("clean wave %d halted: %s", d.Window, d.Report.Summary())
		}
	}
	// Cumulative study grows.
	if decisions[0].StudySize != 6 || decisions[2].StudySize != 18 {
		t.Fatalf("study sizes = %d, %d", decisions[0].StudySize, decisions[2].StudySize)
	}
}

func TestMonitorRolloutFullHalt(t *testing.T) {
	// Degradation on every instance from wave 0: full halt at wave 0, no
	// later waves verified.
	v, plan, control := rolloutFixture(t, 0, false)
	decisions, err := v.MonitorRollout(context.Background(), rolloutRule(), plan, control)
	if err != nil {
		t.Fatal(err)
	}
	if len(decisions) != 1 {
		t.Fatalf("monitor continued past full halt: %d decisions", len(decisions))
	}
	d := decisions[0]
	if d.Go || len(d.HaltAttrValues) != 0 {
		t.Fatalf("want full halt, got %+v", d)
	}
}

func TestMonitorRolloutSelectiveHalt(t *testing.T) {
	// Only hw1 degrades: the monitor flags hw1 for a selective halt and
	// keeps verifying subsequent waves (the rest of the network continues).
	v, plan, control := rolloutFixture(t, 0, true)
	decisions, err := v.MonitorRollout(context.Background(), rolloutRule(), plan, control)
	if err != nil {
		t.Fatal(err)
	}
	if len(decisions) != 3 {
		t.Fatalf("selective halt stopped the monitor: %d decisions", len(decisions))
	}
	first := decisions[0]
	if first.Go {
		t.Fatalf("degradation missed: %s", first.Report.Summary())
	}
	bad := first.HaltAttrValues[inventory.AttrHWVersion]
	if len(bad) != 1 || bad[0] != "hw1" {
		t.Fatalf("selective halt values = %v", first.HaltAttrValues)
	}
}

func TestMonitorRolloutEmptyPlan(t *testing.T) {
	v, _, control := rolloutFixture(t, -1, false)
	if _, err := v.MonitorRollout(context.Background(), rolloutRule(), RolloutPlan{}, control); err == nil {
		t.Fatal("empty plan accepted")
	}
}

// cancelAtWave is a DataSource that cancels a context the first time the
// verifier reads an instance of the given wave.
type cancelAtWave struct {
	DataSource
	prefix string
	cancel context.CancelFunc
}

func (c cancelAtWave) Series(instance, counter string) []float64 {
	if strings.HasPrefix(instance, c.prefix) {
		c.cancel()
	}
	return c.DataSource.Series(instance, counter)
}

// TestMonitorRolloutCancelledBetweenWaves cancels the monitor's context
// while the second wave is being verified: the first wave's decision comes
// back with an error wrapping the context's.
func TestMonitorRolloutCancelledBetweenWaves(t *testing.T) {
	v, plan, control := rolloutFixture(t, -1, false)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	v.Data = cancelAtWave{DataSource: v.Data, prefix: "w1-", cancel: cancel}
	decisions, err := v.MonitorRollout(ctx, rolloutRule(), plan, control)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want one wrapping context.Canceled", err)
	}
	if len(decisions) != 1 || decisions[0].Window != 0 || !decisions[0].Go {
		t.Fatalf("decisions = %+v, want wave 0's go decision alone", decisions)
	}
}
