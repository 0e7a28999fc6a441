package resilience

import (
	"errors"
	"testing"
	"time"
)

// fakeClock is a manually advanced time source.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time          { return c.now }
func (c *fakeClock) Advance(d time.Duration) { c.now = c.now.Add(d) }

// states is each API's breaker state as the set's OnTransition reported
// it; an API with no transition yet is closed.
type states map[string]State

func (w states) of(api string) State {
	if st, ok := w[api]; ok {
		return st
	}
	return Closed
}

func newTestSet(cfg BreakerConfig) (*BreakerSet, *fakeClock, states) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	s := NewBreakerSet(cfg)
	s.Clock = clk.Now
	w := states{}
	s.OnTransition = func(api string, _, to State) { w[api] = to }
	return s, clk, w
}

func TestBreakerStateTransitions(t *testing.T) {
	const api = "/api/bb/health-check"
	cooldown := 10 * time.Second
	// step drives one Allow(+Record) cycle; outcome "reject" expects Allow
	// to refuse, "ok"/"fail" record that invocation result.
	type step struct {
		outcome string // ok | fail | reject
		advance time.Duration
		want    State // state after the step
	}
	cases := []struct {
		name  string
		cfg   BreakerConfig
		steps []step
	}{
		{
			name: "trips after threshold consecutive failures",
			cfg:  BreakerConfig{Threshold: 3, Cooldown: Duration(cooldown)},
			steps: []step{
				{outcome: "fail", want: Closed},
				{outcome: "fail", want: Closed},
				{outcome: "fail", want: Open},
				{outcome: "reject", want: Open},
			},
		},
		{
			name: "success resets the consecutive counter",
			cfg:  BreakerConfig{Threshold: 2, Cooldown: Duration(cooldown)},
			steps: []step{
				{outcome: "fail", want: Closed},
				{outcome: "ok", want: Closed},
				{outcome: "fail", want: Closed},
				{outcome: "fail", want: Open},
			},
		},
		{
			name: "half-open probe success closes",
			cfg:  BreakerConfig{Threshold: 1, Cooldown: Duration(cooldown)},
			steps: []step{
				{outcome: "fail", want: Open},
				{outcome: "reject", want: Open},
				{outcome: "ok", advance: cooldown, want: Closed}, // cooldown elapsed: probe admitted
			},
		},
		{
			name: "half-open probe failure reopens",
			cfg:  BreakerConfig{Threshold: 1, Cooldown: Duration(cooldown)},
			steps: []step{
				{outcome: "fail", want: Open},
				{outcome: "fail", advance: cooldown, want: Open},
				{outcome: "reject", want: Open}, // fresh cooldown applies
				{outcome: "ok", advance: cooldown, want: Closed},
			},
		},
		{
			name: "multiple probes required",
			cfg:  BreakerConfig{Threshold: 1, Cooldown: Duration(cooldown), Probes: 2},
			steps: []step{
				{outcome: "fail", want: Open},
				{outcome: "ok", advance: cooldown, want: HalfOpen},
				{outcome: "ok", want: Closed},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, clk, w := newTestSet(tc.cfg)
			for i, st := range tc.steps {
				clk.Advance(st.advance)
				err := s.Allow(api)
				switch st.outcome {
				case "reject":
					if !errors.Is(err, ErrBreakerOpen) {
						t.Fatalf("step %d: want rejection, got %v", i, err)
					}
				case "ok", "fail":
					if err != nil {
						t.Fatalf("step %d: unexpected rejection: %v", i, err)
					}
					s.Record(api, st.outcome == "ok")
				default:
					t.Fatalf("bad step outcome %q", st.outcome)
				}
				if got := w.of(api); got != st.want {
					t.Fatalf("step %d (%s): state %s, want %s", i, st.outcome, got, st.want)
				}
			}
		})
	}
}

func TestBreakerHalfOpenLimitsProbes(t *testing.T) {
	s, clk, w := newTestSet(BreakerConfig{Threshold: 1, Cooldown: Duration(time.Second)})
	const api = "x"
	if err := s.Allow(api); err != nil {
		t.Fatal(err)
	}
	s.Record(api, false) // trips
	clk.Advance(time.Second)
	if err := s.Allow(api); err != nil {
		t.Fatalf("first probe should be admitted: %v", err)
	}
	if err := s.Allow(api); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("second concurrent probe should be rejected, got %v", err)
	}
	s.Record(api, true)
	if got := w.of(api); got != Closed {
		t.Fatalf("after probe success: %s, want closed", got)
	}
}

func TestBreakerTransitionsObserved(t *testing.T) {
	s, clk, _ := newTestSet(BreakerConfig{Threshold: 1, Cooldown: Duration(time.Second)})
	var seen []string
	s.OnTransition = func(api string, from, to State) {
		seen = append(seen, string(from)+">"+string(to))
	}
	const api = "y"
	_ = s.Allow(api)
	s.Record(api, false)
	clk.Advance(time.Second)
	_ = s.Allow(api)
	s.Record(api, true)
	want := []string{"closed>open", "open>half-open", "half-open>closed"}
	if len(seen) != len(want) {
		t.Fatalf("transitions %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("transitions %v, want %v", seen, want)
		}
	}
}

func TestBreakerResetAndSnapshot(t *testing.T) {
	s, _, w := newTestSet(BreakerConfig{Threshold: 1})
	_ = s.Allow("a")
	s.Record("a", false)
	_ = s.Allow("b")
	s.Record("b", true)
	if w.of("a") != Open || w.of("b") != Closed {
		t.Fatalf("states %v", w)
	}
	s.Reset("a")
	if w.of("a") != Closed {
		t.Fatal("reset should force-close")
	}
	if err := s.Allow("a"); err != nil {
		t.Fatalf("reset breaker rejects: %v", err)
	}
}
