package verifier

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"cornet/internal/inventory"
	"cornet/internal/kpigen"
	"cornet/internal/verify/kpi"
)

// fixture builds a registry with two KPIs, a dataset with study/control
// instances, and optionally an injected impact on the study group.
type fixture struct {
	reg      *kpi.Registry
	ds       *kpigen.Dataset
	inv      *inventory.Inventory
	study    []string
	control  []string
	changeAt map[string]int
	at       int
}

func build(t *testing.T, impactFactor float64, counters ...string) *fixture {
	t.Helper()
	f := &fixture{reg: kpi.NewRegistry(), inv: inventory.New(), changeAt: map[string]int{}}
	mustDefine := func(name string, group kpi.Group, eq string, higher bool) {
		if _, err := f.reg.Define(name, group, eq, higher, 0); err != nil {
			t.Fatal(err)
		}
	}
	mustDefine("throughput", kpi.Scorecard, "tput_num / tput_den", true)
	mustDefine("drop-rate", kpi.Scorecard, "100 * drops / calls", false)

	days, spd := 20, 24
	f.at = 10 * spd
	cfg := kpigen.Config{
		Seed: 99, Days: days, SamplesPerDay: spd,
		Counters: []kpigen.CounterSpec{
			{Name: "tput_num", Base: 5000, DailyAmplitude: 0.3, Noise: 0.05},
			{Name: "tput_den", Base: 100, DailyAmplitude: 0.3, Noise: 0.05},
			{Name: "drops", Base: 10, DailyAmplitude: 0.2, Noise: 0.15},
			{Name: "calls", Base: 1000, DailyAmplitude: 0.3, Noise: 0.05},
		},
	}
	var impacts []kpigen.Impact
	for i := 0; i < 6; i++ {
		id := fmt.Sprintf("study%d", i)
		f.study = append(f.study, id)
		// Staggered change times.
		f.changeAt[id] = f.at + i*12
		if impactFactor != 1 {
			for _, c := range counters {
				impacts = append(impacts, kpigen.Impact{
					Instance: id, Counter: c, At: f.changeAt[id], Factor: impactFactor,
				})
			}
		}
		cf := fmt.Sprintf("CF-%d", i%3+1)
		f.inv.MustAdd(&inventory.Element{ID: id, Attributes: map[string]string{
			inventory.AttrCarrier: cf,
		}})
	}
	for i := 0; i < 6; i++ {
		id := fmt.Sprintf("ctrl%d", i)
		f.control = append(f.control, id)
		f.inv.MustAdd(&inventory.Element{ID: id, Attributes: map[string]string{}})
	}
	ds, err := kpigen.Generate(append(append([]string{}, f.study...), f.control...), cfg, impacts)
	if err != nil {
		t.Fatal(err)
	}
	f.ds = ds
	return f
}

func rule() Rule {
	return Rule{
		Name:       "upgrade-check",
		KPIs:       []string{"throughput", "drop-rate"},
		Expect:     map[string]Verdict{"throughput": NoImpact, "drop-rate": NoImpact},
		Timescales: []int{48, 96},
		PreWindow:  96,
		Alpha:      0.01,
	}
}

func TestVerifyNoImpact(t *testing.T) {
	f := build(t, 1)
	v := &Verifier{Registry: f.reg, Data: f.ds, Inv: f.inv}
	rep, err := v.VerifyContext(context.Background(), rule(), f.study, f.changeAt, f.control)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Go {
		t.Fatalf("no-impact change flagged: %s", rep.Summary())
	}
	for _, r := range rep.Results {
		if r.Verdict != NoImpact {
			t.Fatalf("verdict = %+v", r)
		}
	}
}

func TestVerifyDetectsDegradation(t *testing.T) {
	// drops x3 on the study group: drop-rate degrades (lower is better).
	f := build(t, 3, "drops")
	v := &Verifier{Registry: f.reg, Data: f.ds, Inv: f.inv}
	rep, err := v.VerifyContext(context.Background(), rule(), f.study, f.changeAt, f.control)
	if err != nil {
		t.Fatal(err)
	}
	var dr KPIResult
	for _, r := range rep.Results {
		if r.KPI == "drop-rate" {
			dr = r
		}
	}
	if dr.Verdict != Degradation || !dr.Unexpected {
		t.Fatalf("drop-rate result = %+v\n%s", dr, rep.Summary())
	}
	if rep.Go {
		t.Fatal("unexpected degradation did not halt the roll-out")
	}
	if dr.Shift < 0.5 {
		t.Fatalf("shift = %v, want large positive", dr.Shift)
	}
}

func TestVerifyDetectsImprovement(t *testing.T) {
	// Throughput numerator x1.5: improvement (higher is better), and the
	// rule expects it — Go stays true.
	f := build(t, 1.5, "tput_num")
	r := rule()
	r.Expect["throughput"] = Improvement
	v := &Verifier{Registry: f.reg, Data: f.ds, Inv: f.inv}
	rep, err := v.VerifyContext(context.Background(), r, f.study, f.changeAt, f.control)
	if err != nil {
		t.Fatal(err)
	}
	var tr KPIResult
	for _, res := range rep.Results {
		if res.KPI == "throughput" {
			tr = res
		}
	}
	if tr.Verdict != Improvement || tr.Unexpected {
		t.Fatalf("throughput = %+v", tr)
	}
	if !rep.Go {
		t.Fatal("expected improvement halted roll-out")
	}
}

func TestVerifyExpectedDegradationDoesNotHalt(t *testing.T) {
	// The paper: a software upgrade can have an expected minor throughput
	// degradation; embedding the expectation avoids false halts.
	f := build(t, 0.8, "tput_num")
	r := rule()
	r.Expect["throughput"] = Degradation
	v := &Verifier{Registry: f.reg, Data: f.ds, Inv: f.inv}
	rep, err := v.VerifyContext(context.Background(), r, f.study, f.changeAt, f.control)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Go {
		t.Fatalf("expected degradation halted roll-out: %s", rep.Summary())
	}
}

func TestVerifyAttributeDrillDown(t *testing.T) {
	// Impact only on study0 and study3 (both CF-1): drill-down must show
	// CF-1 degraded while CF-2/CF-3 are clean — the Fig. 2 scenario.
	f := build(t, 1)
	var impacts []kpigen.Impact
	for _, id := range []string{"study0", "study3"} {
		impacts = append(impacts, kpigen.Impact{Instance: id, Counter: "drops", At: f.changeAt[id], Factor: 6})
	}
	cfg := kpigen.Config{
		Seed: 99, Days: 20, SamplesPerDay: 24,
		Counters: []kpigen.CounterSpec{
			{Name: "tput_num", Base: 5000, DailyAmplitude: 0.3, Noise: 0.05},
			{Name: "tput_den", Base: 100, DailyAmplitude: 0.3, Noise: 0.05},
			{Name: "drops", Base: 10, DailyAmplitude: 0.2, Noise: 0.15},
			{Name: "calls", Base: 1000, DailyAmplitude: 0.3, Noise: 0.05},
		},
	}
	ds, err := kpigen.Generate(append(append([]string{}, f.study...), f.control...), cfg, impacts)
	if err != nil {
		t.Fatal(err)
	}
	r := rule()
	r.Attributes = []string{inventory.AttrCarrier}
	v := &Verifier{Registry: f.reg, Data: ds, Inv: f.inv}
	rep, err := v.VerifyContext(context.Background(), r, f.study, f.changeAt, f.control)
	if err != nil {
		t.Fatal(err)
	}
	var dr KPIResult
	for _, res := range rep.Results {
		if res.KPI == "drop-rate" {
			dr = res
		}
	}
	per := dr.PerAttribute[inventory.AttrCarrier]
	if per == nil {
		t.Fatalf("no drill-down: %+v", dr)
	}
	if per["CF-1"] != Degradation {
		t.Fatalf("CF-1 = %v (want degradation); all: %v", per["CF-1"], per)
	}
	if per["CF-2"] == Degradation || per["CF-3"] == Degradation {
		t.Fatalf("clean carriers flagged: %v", per)
	}
}

func TestVerifyValidation(t *testing.T) {
	f := build(t, 1)
	v := &Verifier{Registry: f.reg, Data: f.ds, Inv: f.inv}
	if _, err := v.VerifyContext(context.Background(), rule(), nil, f.changeAt, f.control); err == nil {
		t.Fatal("empty study accepted")
	}
	r := rule()
	r.KPIs = []string{"ghost"}
	if _, err := v.VerifyContext(context.Background(), r, f.study, f.changeAt, f.control); err == nil {
		t.Fatal("unknown KPI accepted")
	}
	r2 := rule()
	r2.PreWindow = 0
	if _, err := v.VerifyContext(context.Background(), r2, f.study, f.changeAt, f.control); err == nil {
		t.Fatal("zero PreWindow accepted")
	}
	r3 := rule()
	r3.Timescales = nil
	if _, err := v.VerifyContext(context.Background(), r3, f.study, f.changeAt, f.control); err == nil {
		t.Fatal("no timescales accepted")
	}
	r4 := rule()
	r4.Timescales = []int{0}
	if _, err := v.VerifyContext(context.Background(), r4, f.study, f.changeAt, f.control); err == nil {
		t.Fatal("zero timescale accepted")
	}
}

func TestVerifyGroupSelection(t *testing.T) {
	f := build(t, 1)
	v := &Verifier{Registry: f.reg, Data: f.ds, Inv: f.inv}
	r := rule()
	r.KPIs = nil
	r.Group = kpi.Scorecard
	rep, err := v.VerifyContext(context.Background(), r, f.study, f.changeAt, f.control)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 2 {
		t.Fatalf("group selection results = %d", len(rep.Results))
	}
}

func TestVerifyMissingSeriesInconclusive(t *testing.T) {
	f := build(t, 1)
	// A KPI over counters absent from the dataset.
	if _, err := f.reg.Define("ghost-kpi", kpi.Scorecard, "nope / nada", true, 0); err != nil {
		t.Fatal(err)
	}
	r := rule()
	r.KPIs = []string{"ghost-kpi"}
	r.Expect = nil
	v := &Verifier{Registry: f.reg, Data: f.ds, Inv: f.inv}
	rep, err := v.VerifyContext(context.Background(), r, f.study, f.changeAt, f.control)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Results[0].Verdict != Inconclusive {
		t.Fatalf("verdict = %v", rep.Results[0].Verdict)
	}
	if !rep.Go {
		t.Fatal("inconclusive must not halt")
	}
}

func TestSummaryAndCounts(t *testing.T) {
	f := build(t, 3, "drops")
	v := &Verifier{Registry: f.reg, Data: f.ds, Inv: f.inv}
	rep, _ := v.VerifyContext(context.Background(), rule(), f.study, f.changeAt, f.control)
	s := rep.Summary()
	if !strings.Contains(s, "drop-rate") || !strings.Contains(s, "UNEXPECTED") {
		t.Fatalf("summary = %s", s)
	}
	counts := rep.CountVerdicts()
	if counts[Degradation] != 1 {
		t.Fatalf("counts = %v", counts)
	}
}
