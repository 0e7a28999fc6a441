package changelog

import (
	"fmt"
	"math"
	"testing"
	"time"
)

func nodes(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("node-%05d", i)
	}
	return out
}

func TestGenerateShareAndDurations(t *testing.T) {
	recs, err := Generate(GenConfig{Seed: 1, Nodes: nodes(2000), Days: 60,
		DailyChangeRate: 0.15, WithCORNET: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2000*60*15/100 {
		t.Fatalf("records = %d", len(recs))
	}
	dist := Distribution(recs)
	byType := map[ChangeType]TypeStats{}
	for _, st := range dist {
		byType[st.Type] = st
	}
	// Shares approximate Table 1 within a few points.
	wantShare := map[ChangeType]float64{
		SoftwareUpgrade: 0.2467, ConfigChange: 0.6582,
		NodeRetuning: 0.0114, ConstructionWork: 0.0837,
	}
	for ct, want := range wantShare {
		got := byType[ct].Share
		if math.Abs(got-want) > 0.03 {
			t.Errorf("%s share = %.4f, want ~%.4f", ct, got, want)
		}
	}
	// Duration ordering matches Table 1: retuning > construction >
	// software > config.
	if !(byType[NodeRetuning].AvgDur > byType[ConstructionWork].AvgDur &&
		byType[ConstructionWork].AvgDur > byType[SoftwareUpgrade].AvgDur &&
		byType[SoftwareUpgrade].AvgDur > byType[ConfigChange].AvgDur) {
		t.Errorf("duration ordering wrong: %+v", byType)
	}
	// Magnitudes in the right ballpark (Table 1: 1.92/1.66/3.82/3.01).
	approx := map[ChangeType]float64{
		SoftwareUpgrade: 1.92, ConfigChange: 1.66,
		NodeRetuning: 3.82, ConstructionWork: 3.01,
	}
	for ct, want := range approx {
		got := byType[ct].AvgDur
		if got < want*0.5 || got > want*1.8 {
			t.Errorf("%s avg duration = %.2f, want within [%.2f, %.2f]",
				ct, got, want*0.5, want*1.8)
		}
	}
	// All durations at least one window.
	for _, r := range recs {
		if r.DurationMW < 1 {
			t.Fatalf("zero duration: %+v", r)
		}
	}
}

func TestTable6SpreadReform(t *testing.T) {
	// Without CORNET construction-work has a much wider spread (Table 6:
	// sigma 36.91 vs 19.09); the generated ratio should exceed ~1.5x.
	with, _ := Generate(GenConfig{Seed: 2, Nodes: nodes(3000), Days: 80, WithCORNET: true})
	without, _ := Generate(GenConfig{Seed: 2, Nodes: nodes(3000), Days: 80, WithCORNET: false})
	sigma := func(recs []Record) float64 {
		for _, st := range Distribution(recs) {
			if st.Type == ConstructionWork {
				return st.StdDevDur
			}
		}
		return 0
	}
	sw, swo := sigma(with), sigma(without)
	if swo < 1.5*sw {
		t.Fatalf("construction spread reform missing: with=%.2f without=%.2f", sw, swo)
	}
	// Averages stay comparable (Table 6: 3.78 vs 4.06).
	avg := func(recs []Record) float64 {
		for _, st := range Distribution(recs) {
			if st.Type == ConstructionWork {
				return st.AvgDur
			}
		}
		return 0
	}
	if a, b := avg(with), avg(without); b < a {
		t.Logf("note: avg with=%.2f without=%.2f", a, b)
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(GenConfig{Seed: 1, Days: 5}); err == nil {
		t.Fatal("no nodes accepted")
	}
	if _, err := Generate(GenConfig{Seed: 1, Nodes: nodes(5)}); err == nil {
		t.Fatal("zero days accepted")
	}
}

func TestDurationHistogram(t *testing.T) {
	recs := []Record{
		{DurationMW: 1}, {DurationMW: 1}, {DurationMW: 3},
	}
	h := DurationHistogram(recs)
	if h[1] != 2 || h[3] != 1 {
		t.Fatalf("histogram = %v", h)
	}
}

func TestDeploymentCurves(t *testing.T) {
	sim := DeploymentSim{Seed: 3, Nodes: 10000, FFADays: 5, FFAFraction: 0.01, AssessDays: 4, Capacity: 500}
	cornet := sim.CORNETCurve()
	manual := sim.ManualCurve()
	for _, curve := range [][]float64{cornet, manual} {
		// Monotone non-decreasing, ends at 1.0.
		for i := 1; i < len(curve); i++ {
			if curve[i] < curve[i-1] {
				t.Fatalf("curve not monotone at %d", i)
			}
		}
		if curve[len(curve)-1] < 0.999 {
			t.Fatalf("curve ends at %v", curve[len(curve)-1])
		}
	}
	// Fig. 1 phases visible in the CORNET curve: slow FFA start.
	if cornet[sim.FFADays-1] > 0.05 {
		t.Fatalf("FFA deployed too much: %v", cornet[sim.FFADays-1])
	}
	// Fig. 5: CORNET completes faster and with a shorter tail.
	cw, mw := CompletionWindow(cornet, 0.99), CompletionWindow(manual, 0.99)
	if cw < 0 || mw < 0 || cw >= mw {
		t.Fatalf("CORNET %d vs manual %d windows to 99%%", cw, mw)
	}
	ct, mt := TailLength(cornet), TailLength(manual)
	if ct < 0 || mt < 0 || ct > mt {
		t.Fatalf("tails: cornet=%d manual=%d", ct, mt)
	}
}

func TestDeploymentEdgeCases(t *testing.T) {
	if got := (DeploymentSim{}).CORNETCurve(); got != nil {
		t.Fatalf("zero sim = %v", got)
	}
	if got := CompletionWindow([]float64{0.1, 0.5}, 0.99); got != -1 {
		t.Fatalf("incomplete curve window = %d", got)
	}
	small := DeploymentSim{Seed: 1, Nodes: 10, FFADays: 5, FFAFraction: 0.01, AssessDays: 4, Capacity: 1}
	c := small.CORNETCurve()
	if c[len(c)-1] < 0.999 {
		t.Fatalf("small fleet incomplete: %v", c)
	}
}

func TestHumanTimeSavings(t *testing.T) {
	// 100K nodes at 300/batch = 334 manual hours; discovery of a few
	// minutes yields ~99%+ savings; the paper reports 88.6% average.
	s := HumanTimeSavings(100000, 300, 5*time.Minute)
	if s < 0.85 || s > 1 {
		t.Fatalf("savings = %v", s)
	}
	if HumanTimeSavings(0, 300, time.Minute) != 0 {
		t.Fatal("zero nodes")
	}
	// Slow discovery cannot go negative.
	if HumanTimeSavings(10, 10, 2*time.Hour) != 0 {
		t.Fatal("negative savings not clamped")
	}
}

func TestVerificationTimeSavings(t *testing.T) {
	// 349 KPIs x 10 attributes x 1 minute manual each vs 4 seconds.
	s := VerificationTimeSavings(349, 10, time.Minute, 4*time.Second)
	if s < 0.97 {
		t.Fatalf("savings = %v", s)
	}
	if VerificationTimeSavings(0, 0, time.Minute, time.Second) != 0 {
		t.Fatal("zero KPIs")
	}
}
