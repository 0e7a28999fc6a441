package kpi

import (
	"math"
	"testing"
)

// FuzzParse exercises the KPI equation parser with arbitrary input: it must
// never panic, and anything it accepts must evaluate without panicking and
// report consistent counter metadata. Run with:
//
//	go test -fuzz FuzzParse ./internal/verify/kpi
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"100 * rrc_success / rrc_attempts",
		"(a + b) * -c / (d + 1)",
		"acc.success_0 / acc.attempts_0",
		"1e3 + 0.5 - x.y",
		"a..b", "((", "1 +", "- - -a", "",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		e, err := Parse(src)
		if err != nil {
			return
		}
		vals := map[string]float64{}
		for _, c := range e.Counters() {
			vals[c] = 1
		}
		v := e.Eval(vals)
		_ = math.IsNaN(v) // any float is acceptable; panics are not
		if len(e.Tables()) == 0 && len(e.Counters()) > 0 {
			t.Fatalf("counters without tables entry for %q", src)
		}
	})
}
