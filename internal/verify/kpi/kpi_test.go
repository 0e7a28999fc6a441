package kpi

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestParseAndEval(t *testing.T) {
	cases := []struct {
		src  string
		vals map[string]float64
		want float64
	}{
		{"1 + 2 * 3", nil, 7},
		{"(1 + 2) * 3", nil, 9},
		{"10 / 4", nil, 2.5},
		{"-5 + 3", nil, -2},
		{"- (2 + 3)", nil, -5},
		{"100 * ok / total", map[string]float64{"ok": 99, "total": 100}, 99},
		{"acc.success / acc.attempts", map[string]float64{"acc.success": 1, "acc.attempts": 2}, 0.5},
		{"a - b - c", map[string]float64{"a": 10, "b": 3, "c": 2}, 5}, // left assoc
		{"1e2 + 0.5", nil, 100.5},
	}
	for _, tc := range cases {
		e, err := Parse(tc.src)
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.src, err)
			continue
		}
		if got := e.Eval(tc.vals); got != tc.want {
			t.Errorf("%q = %v, want %v", tc.src, got, tc.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		"", "1 +", "(1", "1)", "a..b", "x.", "1 $ 2", "()", "* 3",
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) accepted", src)
		}
	}
}

func TestDivisionByZeroNaN(t *testing.T) {
	e, _ := Parse("a / b")
	if got := e.Eval(map[string]float64{"a": 1, "b": 0}); !math.IsNaN(got) {
		t.Fatalf("1/0 = %v", got)
	}
	// Missing counter -> NaN propagates.
	if got := e.Eval(map[string]float64{"a": 1}); !math.IsNaN(got) {
		t.Fatalf("missing counter = %v", got)
	}
}

func TestCountersTablesJoinDepth(t *testing.T) {
	e, _ := Parse("100 * acc.s / acc.a + ret.x / (thp.y + 1)")
	if got := e.Counters(); !reflect.DeepEqual(got, []string{"acc.a", "acc.s", "ret.x", "thp.y"}) {
		t.Fatalf("Counters = %v", got)
	}
	if got := e.Tables(); !reflect.DeepEqual(got, []string{"acc", "ret", "thp"}) {
		t.Fatalf("Tables = %v", got)
	}
	single, _ := Parse("a + b")
	if got := single.Tables(); len(got) > 1 {
		t.Fatalf("unqualified counters span tables %v, want no join", got)
	}
}

func TestEvalSeries(t *testing.T) {
	e, _ := Parse("100 * s / a")
	out := e.EvalSeries(map[string][]float64{
		"s": {99, 98, 97},
		"a": {100, 100, 100, 100}, // longer: shortest bound wins
	})
	if !reflect.DeepEqual(out, []float64{99, 98, 97}) {
		t.Fatalf("EvalSeries = %v", out)
	}
	if got := e.EvalSeries(map[string][]float64{}); got != nil {
		t.Fatalf("no series = %v", got)
	}
}

func TestRegistryDefineVersioning(t *testing.T) {
	r := NewRegistry()
	d1, err := r.Define("drop-rate", Scorecard, "100 * drops / calls", false, 0)
	if err != nil || d1.Version != 1 {
		t.Fatalf("define: %v %v", d1, err)
	}
	// New software release adds a cause code: the equation is updated.
	d2, err := r.Define("drop-rate", Scorecard, "100 * (drops + drops_new_cause) / calls", false, 9)
	if err != nil || d2.Version != 2 {
		t.Fatalf("redefine: %v %v", d2, err)
	}
	got, _ := r.Get("drop-rate")
	if got.Version != 2 || len(got.Expr.Counters()) != 3 {
		t.Fatalf("got %+v", got)
	}
	churn := r.Churn()
	if churn[0] != 1 || churn[9] != 1 {
		t.Fatalf("churn = %v", churn)
	}
	// Bad definitions rejected.
	if _, err := r.Define("", Scorecard, "1", true, 0); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := r.Define("x", "mystery", "1", true, 0); err == nil {
		t.Fatal("bad group accepted")
	}
	if _, err := r.Define("x", Scorecard, "1 +", true, 0); err == nil {
		t.Fatal("bad equation accepted")
	}
}

func TestSeedCatalogMatchesTable5(t *testing.T) {
	r := NewRegistry()
	if err := SeedCatalog(r, 0); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		group Group
		h     JoinHistogram
	}{
		{Scorecard, JoinHistogram{KPIs: 9, Tables: 6, NoJoin: 6}},
		{Level1, JoinHistogram{KPIs: 58, Tables: 17, NoJoin: 14, TwoWay: 3}},
		{Level2, JoinHistogram{KPIs: 123, Tables: 14, NoJoin: 10, TwoWay: 3, ThreeWay: 1}},
		{Level3, JoinHistogram{KPIs: 159, Tables: 17, NoJoin: 16, TwoWay: 1}},
		{"", JoinHistogram{KPIs: 349, Tables: 48, NoJoin: 40, TwoWay: 7, ThreeWay: 1}},
	}
	for _, tc := range cases {
		if got := r.JoinStats(tc.group); got != tc.h {
			t.Errorf("JoinStats(%q) = %+v, want %+v", tc.group, got, tc.h)
		}
	}
	if r.Len() != 349 {
		t.Fatalf("catalog size = %d", r.Len())
	}
}

func TestCatalogCounterSpecsCoverEquations(t *testing.T) {
	r := NewRegistry()
	if err := SeedCatalog(r, 0); err != nil {
		t.Fatal(err)
	}
	have := map[string]bool{}
	for _, spec := range CatalogCounterSpecs() {
		have[spec.Name] = true
	}
	for _, d := range r.ByGroup("") {
		for _, c := range d.Expr.Counters() {
			if !have[c] {
				t.Fatalf("counter %s of %s not covered by CatalogCounterSpecs", c, d.Name)
			}
		}
	}
}

func TestAggregateSeries(t *testing.T) {
	byInst := map[string][]float64{
		"a": {1, 2, 3},
		"b": {3, 4, 5},
		"c": {5, 6, 7},
	}
	if got := AggregateSeries(byInst, AggMedian, nil); !reflect.DeepEqual(got, []float64{3, 4, 5}) {
		t.Fatalf("median = %v", got)
	}
	if got := AggregateSeries(byInst, AggAverage, nil); !reflect.DeepEqual(got, []float64{3, 4, 5}) {
		t.Fatalf("avg = %v", got)
	}
	w := map[string][]float64{
		"a": {1, 1, 1}, "b": {0, 0, 0}, "c": {1, 1, 1},
	}
	if got := AggregateSeries(byInst, AggWeighted, w); !reflect.DeepEqual(got, []float64{3, 4, 5}) {
		t.Fatalf("weighted = %v", got)
	}
}

func TestAggregateSeriesMissingData(t *testing.T) {
	nan := math.NaN()
	byInst := map[string][]float64{
		"a": {1, nan, 3},
		"b": {3, 4, nan},
	}
	got := AggregateSeries(byInst, AggAverage, nil)
	if got[0] != 2 || got[1] != 4 || got[2] != 3 {
		t.Fatalf("missing-data aggregate = %v", got)
	}
	// All-NaN timepoint stays NaN.
	byInst2 := map[string][]float64{"a": {nan}, "b": {nan}}
	if got := AggregateSeries(byInst2, AggMedian, nil); !math.IsNaN(got[0]) {
		t.Fatalf("all-missing = %v", got)
	}
	if got := AggregateSeries(nil, AggMedian, nil); got != nil {
		t.Fatalf("empty input = %v", got)
	}
}

// Property: parser round-trips numeric arithmetic correctly against a
// reference computation for random small expressions.
func TestParsePrecedenceProperty(t *testing.T) {
	f := func(a, b, c int8) bool {
		x, y, z := float64(a), float64(b), float64(c)
		e, err := Parse("a + b * c")
		if err != nil {
			return false
		}
		got := e.Eval(map[string]float64{"a": x, "b": y, "c": z})
		return got == x+y*z
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
