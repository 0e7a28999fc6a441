// Package slo evaluates declarative service-level objectives over sliding
// windows with multi-window burn-rate alerting. An Objective declares a
// target good-event ratio (plan latency under threshold, change success,
// admission served-vs-shed); a Tracker folds observations into per-second
// buckets and reports, per objective, the compliance over its window and
// the error-budget burn rate over paired short/long alert windows (the
// fast 5m/1h and slow 30m/6h pairs of SRE practice). cmd/cornetd feeds a
// Tracker from the event journal, serves it at GET /api/slo, and exports
// it as cornet_slo_* gauges.
package slo

import (
	"fmt"
	"sync"
	"time"

	"cornet/internal/obs"
)

// Objective declares one service-level objective.
type Objective struct {
	// Name identifies the objective (metric label, API key).
	Name string `json:"name"`
	// Description explains what the objective protects.
	Description string `json:"description,omitempty"`
	// Target is the demanded good-event ratio in (0,1), e.g. 0.99.
	Target float64 `json:"target"`
	// LatencyThreshold classifies latency observations: an observation is
	// good when at or under the threshold. Zero for outcome objectives
	// whose observations are already good/bad.
	LatencyThreshold time.Duration `json:"latency_threshold,omitempty"`
	// Window is the compliance window (default 1h).
	Window time.Duration `json:"window,omitempty"`
}

// burnWindow is one alerting window pair: alert when the burn rate over
// BOTH the short and the long window exceeds the factor (the short window
// makes the alert reset fast, the long one keeps it from flapping).
type burnWindow struct {
	name        string
	short, long time.Duration
	factor      float64
}

// The multi-window burn-rate pairs: "fast" catches budget-torching
// incidents in minutes, "slow" catches sustained simmering burn.
var burnWindows = []burnWindow{
	{name: "fast", short: 5 * time.Minute, long: time.Hour, factor: 14.4},
	{name: "slow", short: 30 * time.Minute, long: 6 * time.Hour, factor: 6},
}

// maxWindow is the longest horizon any window may use; the per-second
// ring is sized to it.
const maxWindow = 6 * time.Hour

// bucket accumulates one second of observations.
type bucket struct {
	sec       int64
	good, bad int64
}

// objState is one tracked objective plus its bucket ring.
type objState struct {
	obj  Objective
	ring []bucket
}

// Tracker evaluates registered objectives. Safe for concurrent use.
type Tracker struct {
	mu    sync.Mutex
	clock func() time.Time
	objs  map[string]*objState
	order []string

	metricCompliance *obs.GaugeVec
	metricBurn       *obs.GaugeVec
	metricAlerting   *obs.GaugeVec
	metricObs        *obs.CounterVec
}

// New returns an empty tracker on the real clock.
func New() *Tracker { return NewWithClock(time.Now) }

// NewWithClock returns a tracker using the given clock (tests).
func NewWithClock(clock func() time.Time) *Tracker {
	return &Tracker{
		clock: clock,
		objs:  map[string]*objState{},
		metricCompliance: obs.Default.GaugeVec("cornet_slo_compliance",
			"Good-event ratio over the objective's compliance window.", "objective"),
		metricBurn: obs.Default.GaugeVec("cornet_slo_burn_rate",
			"Error-budget burn rate by objective and alert window (1 = burning exactly the budget).",
			"objective", "window"),
		metricAlerting: obs.Default.GaugeVec("cornet_slo_alerting",
			"1 when the objective's multi-window burn-rate alert is firing.",
			"objective", "window"),
		metricObs: obs.Default.CounterVec("cornet_slo_observations_total",
			"SLO observations by objective and classification.", "objective", "result"),
	}
}

// Register adds an objective; re-registering a name is an error.
func (t *Tracker) Register(o Objective) error {
	if o.Name == "" {
		return fmt.Errorf("slo: objective needs a name")
	}
	if o.Target <= 0 || o.Target >= 1 {
		return fmt.Errorf("slo: objective %s: target %v outside (0,1)", o.Name, o.Target)
	}
	if o.Window <= 0 {
		o.Window = time.Hour
	}
	if o.Window > maxWindow {
		o.Window = maxWindow
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, dup := t.objs[o.Name]; dup {
		return fmt.Errorf("slo: objective %s already registered", o.Name)
	}
	t.objs[o.Name] = &objState{obj: o, ring: make([]bucket, int(maxWindow/time.Second))}
	t.order = append(t.order, o.Name)
	return nil
}

// Observe folds one good/bad observation into the named objective.
// Unknown names are ignored (event feeds may be broader than the
// registered objectives).
func (t *Tracker) Observe(name string, good bool) {
	t.mu.Lock()
	st, ok := t.objs[name]
	if !ok {
		t.mu.Unlock()
		return
	}
	sec := t.clock().Unix()
	b := &st.ring[sec%int64(len(st.ring))]
	if b.sec != sec {
		*b = bucket{sec: sec}
	}
	result := "good"
	if good {
		b.good++
	} else {
		b.bad++
		result = "bad"
	}
	t.mu.Unlock()
	t.metricObs.With(name, result).Inc()
}

// ObserveLatency folds one latency observation into the named objective,
// classifying it against the objective's threshold.
func (t *Tracker) ObserveLatency(name string, d time.Duration) {
	t.mu.Lock()
	st, ok := t.objs[name]
	if !ok {
		t.mu.Unlock()
		return
	}
	threshold := st.obj.LatencyThreshold
	t.mu.Unlock()
	t.Observe(name, threshold <= 0 || d <= threshold)
}

// WindowStatus reports one alert window pair's burn rates.
type WindowStatus struct {
	// Name is the pair name (fast, slow).
	Name string `json:"name"`
	// ShortWindow and LongWindow are the paired horizons.
	ShortWindow time.Duration `json:"short_window"`
	LongWindow  time.Duration `json:"long_window"`
	// Factor is the burn-rate threshold both windows must exceed to alert.
	Factor float64 `json:"factor"`
	// ShortBurn and LongBurn are the measured burn rates (1 = burning the
	// error budget exactly at the sustainable rate).
	ShortBurn float64 `json:"short_burn"`
	LongBurn  float64 `json:"long_burn"`
	// Alerting reports whether both windows exceed the factor.
	Alerting bool `json:"alerting"`
}

// Status is one objective's evaluated state.
type Status struct {
	Objective
	// Good and Bad count observations over the compliance window.
	Good int64 `json:"good"`
	Bad  int64 `json:"bad"`
	// Compliance is good/(good+bad) over the window (1 with no data).
	Compliance float64 `json:"compliance"`
	// BudgetRemaining is the unburned error-budget fraction over the
	// window (negative when the objective is blown).
	BudgetRemaining float64 `json:"budget_remaining"`
	// Burn reports the multi-window burn-rate alert pairs.
	Burn []WindowStatus `json:"burn"`
}

// Status evaluates every registered objective, in registration order.
func (t *Tracker) Status() []Status {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.clock().Unix()
	out := make([]Status, 0, len(t.order))
	for _, name := range t.order {
		st := t.objs[name]
		good, bad := st.sum(now, st.obj.Window)
		s := Status{Objective: st.obj, Good: good, Bad: bad, Compliance: 1}
		if good+bad > 0 {
			s.Compliance = float64(good) / float64(good+bad)
		}
		s.BudgetRemaining = 1 - burnRate(good, bad, st.obj.Target)
		for _, w := range burnWindows {
			sg, sb := st.sum(now, w.short)
			lg, lb := st.sum(now, w.long)
			ws := WindowStatus{
				Name: w.name, ShortWindow: w.short, LongWindow: w.long, Factor: w.factor,
				ShortBurn: burnRate(sg, sb, st.obj.Target),
				LongBurn:  burnRate(lg, lb, st.obj.Target),
			}
			ws.Alerting = ws.ShortBurn >= w.factor && ws.LongBurn >= w.factor
			s.Burn = append(s.Burn, ws)
		}
		out = append(out, s)
	}
	return out
}

// SyncMetrics publishes every objective's evaluated state into the
// cornet_slo_* gauges; cmd/cornetd calls it before each /metrics scrape.
func (t *Tracker) SyncMetrics() {
	for _, s := range t.Status() {
		t.metricCompliance.With(s.Name).Set(s.Compliance)
		for _, w := range s.Burn {
			t.metricBurn.With(s.Name, w.Name).Set(w.ShortBurn)
			alerting := 0.0
			if w.Alerting {
				alerting = 1
			}
			t.metricAlerting.With(s.Name, w.Name).Set(alerting)
		}
	}
}

// sum totals the buckets inside [now-window, now]. Callers hold t.mu.
func (st *objState) sum(now int64, window time.Duration) (good, bad int64) {
	secs := int64(window / time.Second)
	if secs > int64(len(st.ring)) {
		secs = int64(len(st.ring))
	}
	for i := range st.ring {
		b := &st.ring[i]
		if b.sec > now-secs && b.sec <= now {
			good += b.good
			bad += b.bad
		}
	}
	return good, bad
}

// burnRate is the error-budget consumption rate: the observed bad ratio
// divided by the budgeted bad ratio (1-target). 1 means the budget burns
// exactly at the sustainable rate; 0 with no data.
func burnRate(good, bad int64, target float64) float64 {
	total := good + bad
	if total == 0 {
		return 0
	}
	return (float64(bad) / float64(total)) / (1 - target)
}
