package kpigen

import (
	"math"
	"testing"

	"cornet/internal/verify/stats"
)

func cfg() Config {
	return Config{
		Seed: 42, Days: 14, SamplesPerDay: 24,
		Counters: []CounterSpec{
			{Name: "thrpt", Base: 100, DailyAmplitude: 0.3, Noise: 0.05},
			{Name: "drops", Base: 10, DailyAmplitude: 0.2, Noise: 0.2},
		},
	}
}

func TestGenerateShape(t *testing.T) {
	ds, err := Generate([]string{"a", "b"}, cfg(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Length != 14*24 {
		t.Fatalf("length = %d", ds.Length)
	}
	for _, inst := range []string{"a", "b"} {
		for _, c := range []string{"thrpt", "drops"} {
			if len(ds.Series(inst, c)) != ds.Length {
				t.Fatalf("series %s/%s missing", inst, c)
			}
		}
	}
	s := ds.Series("a", "thrpt")
	if len(s) != ds.Length {
		t.Fatalf("series length = %d", len(s))
	}
	for i, v := range s {
		if v < 0 || math.IsNaN(v) {
			t.Fatalf("sample %d = %v", i, v)
		}
	}
	if ds.Series("a", "nope") != nil || ds.Series("zz", "thrpt") != nil {
		t.Fatal("missing series should be nil")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _ := Generate([]string{"x", "y"}, cfg(), nil)
	b, _ := Generate([]string{"x", "y"}, cfg(), nil)
	for _, inst := range []string{"x", "y"} {
		for _, c := range []string{"thrpt", "drops"} {
			sa, sb := a.Series(inst, c), b.Series(inst, c)
			for i := range sa {
				if sa[i] != sb[i] {
					t.Fatalf("nondeterministic at %s/%s[%d]", inst, c, i)
				}
			}
		}
	}
	// Adding an instance must not perturb existing ones.
	c3, _ := Generate([]string{"x", "y", "z"}, cfg(), nil)
	if c3.Series("x", "thrpt")[7] != a.Series("x", "thrpt")[7] {
		t.Fatal("per-instance streams not independent")
	}
}

func TestInjectedImpactDetectable(t *testing.T) {
	c := cfg()
	at := c.Days * c.SamplesPerDay / 2
	ds, err := Generate([]string{"a", "ctrl"}, c, []Impact{
		{Instance: "a", Counter: "thrpt", At: at, Factor: 1.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	pre := ds.Window("a", "thrpt", at-96, at)
	post := ds.Window("a", "thrpt", at, at+96)
	res, err := stats.RobustRankOrder(pre, post)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Significant(0.01) || res.MedianB < res.MedianA {
		t.Fatalf("injected 1.5x shift invisible: %+v", res)
	}
	// Control instance unaffected.
	preC := ds.Window("ctrl", "thrpt", at-96, at)
	postC := ds.Window("ctrl", "thrpt", at, at+96)
	resC, err := stats.RobustRankOrder(preC, postC)
	if err != nil {
		t.Fatal(err)
	}
	if resC.Significant(0.001) {
		t.Fatalf("control drifted: %+v", resC)
	}
}

func TestMissingDataDropped(t *testing.T) {
	c := cfg()
	c.MissingProb = 0.2
	ds, err := Generate([]string{"a"}, c, nil)
	if err != nil {
		t.Fatal(err)
	}
	raw := ds.Series("a", "thrpt")
	nan := 0
	for _, v := range raw {
		if math.IsNaN(v) {
			nan++
		}
	}
	if nan == 0 {
		t.Fatal("no missing samples injected")
	}
	w := ds.Window("a", "thrpt", 0, ds.Length)
	if len(w) != ds.Length-nan {
		t.Fatalf("Window kept NaNs: %d vs %d", len(w), ds.Length-nan)
	}
}

func TestGenerateValidation(t *testing.T) {
	c := cfg()
	c.Days = 0
	if _, err := Generate([]string{"a"}, c, nil); err == nil {
		t.Fatal("zero days accepted")
	}
	c = cfg()
	c.Counters = nil
	if _, err := Generate([]string{"a"}, c, nil); err == nil {
		t.Fatal("no counters accepted")
	}
	c = cfg()
	if _, err := Generate([]string{"a"}, c, []Impact{{Instance: "a", Counter: "thrpt", At: 99999, Factor: 2}}); err == nil {
		t.Fatal("out-of-range impact accepted")
	}
}

func TestWindowBounds(t *testing.T) {
	ds, _ := Generate([]string{"a"}, cfg(), nil)
	if got := ds.Window("a", "thrpt", -5, 10); len(got) != 10 {
		t.Fatalf("clamped from: %d", len(got))
	}
	if got := ds.Window("a", "thrpt", ds.Length-10, ds.Length+50); len(got) != 10 {
		t.Fatalf("clamped to: %d", len(got))
	}
	if got := ds.Window("a", "thrpt", 50, 50); got != nil {
		t.Fatalf("empty window: %v", got)
	}
}

func TestDefaultCellularCounters(t *testing.T) {
	specs := DefaultCellularCounters()
	if len(specs) < 15 {
		t.Fatalf("too few counters: %d", len(specs))
	}
	seen := map[string]bool{}
	for _, s := range specs {
		if s.Name == "" || s.Base <= 0 {
			t.Fatalf("bad spec %+v", s)
		}
		if seen[s.Name] {
			t.Fatalf("duplicate counter %s", s.Name)
		}
		seen[s.Name] = true
	}
	for _, want := range []string{"volte_drops", "dl_throughput_num", "rrc_success"} {
		if !seen[want] {
			t.Fatalf("missing counter %s", want)
		}
	}
}

func TestSeasonalityPresent(t *testing.T) {
	c := Config{Seed: 7, Days: 10, SamplesPerDay: 24,
		Counters: []CounterSpec{{Name: "x", Base: 100, DailyAmplitude: 0.5, Noise: 0.01}}}
	ds, _ := Generate([]string{"a"}, c, nil)
	s := ds.Series("a", "x")
	// Peak (phase pi/2, sample 6) should be well above trough (sample 18).
	var peaks, troughs []float64
	for d := 0; d < 10; d++ {
		peaks = append(peaks, s[d*24+6])
		troughs = append(troughs, s[d*24+18])
	}
	if stats.Median(peaks) < 1.5*stats.Median(troughs) {
		t.Fatalf("seasonality weak: peak %v trough %v", stats.Median(peaks), stats.Median(troughs))
	}
}
