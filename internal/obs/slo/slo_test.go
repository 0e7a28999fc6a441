package slo

import (
	"strings"
	"testing"
	"time"

	"cornet/internal/obs"
	"cornet/internal/obs/events"
)

func fakeClock(start time.Time) (func() time.Time, func(time.Duration)) {
	now := start
	return func() time.Time { return now }, func(d time.Duration) { now = now.Add(d) }
}

// approx absorbs float64 division noise in ratio assertions.
func approx(got, want float64) bool {
	diff := got - want
	return diff < 1e-9 && diff > -1e-9
}

func TestRegisterValidation(t *testing.T) {
	tr := New()
	if err := tr.Register(Objective{Name: "", Target: 0.9}); err == nil {
		t.Fatal("nameless objective accepted")
	}
	if err := tr.Register(Objective{Name: "x", Target: 1.5}); err == nil {
		t.Fatal("target > 1 accepted")
	}
	if err := tr.Register(Objective{Name: "x", Target: 0.9}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Register(Objective{Name: "x", Target: 0.9}); err == nil {
		t.Fatal("duplicate objective accepted")
	}
}

func TestComplianceAndBurnRate(t *testing.T) {
	clock, advance := fakeClock(time.Unix(1_700_000_000, 0))
	tr := NewWithClock(clock)
	if err := tr.Register(Objective{Name: "succ", Target: 0.9, Window: time.Hour}); err != nil {
		t.Fatal(err)
	}
	// 80 good + 20 bad = 80% compliance against a 90% target: the bad
	// ratio (0.2) burns the budget (0.1) at 2x.
	for i := 0; i < 100; i++ {
		tr.Observe("succ", i%5 != 0)
		advance(time.Second)
	}
	st := tr.Status()
	if len(st) != 1 {
		t.Fatalf("status count = %d", len(st))
	}
	s := st[0]
	if s.Good != 80 || s.Bad != 20 {
		t.Fatalf("good/bad = %d/%d", s.Good, s.Bad)
	}
	if s.Compliance != 0.8 {
		t.Fatalf("compliance = %v", s.Compliance)
	}
	if len(s.Burn) != 2 {
		t.Fatalf("burn windows = %d", len(s.Burn))
	}
	for _, w := range s.Burn {
		if !approx(w.ShortBurn, 2) {
			t.Fatalf("window %s short burn = %v, want 2", w.Name, w.ShortBurn)
		}
	}
	if !approx(s.BudgetRemaining, -1) {
		t.Fatalf("budget remaining = %v, want -1 (burned 2x)", s.BudgetRemaining)
	}
}

func TestMultiWindowAlerting(t *testing.T) {
	clock, advance := fakeClock(time.Unix(1_700_000_000, 0))
	tr := NewWithClock(clock)
	if err := tr.Register(Objective{Name: "lat", Target: 0.99, LatencyThreshold: time.Second}); err != nil {
		t.Fatal(err)
	}
	// All-bad traffic burns at 100x: both pairs must alert.
	for i := 0; i < 60; i++ {
		tr.ObserveLatency("lat", 5*time.Second)
		advance(time.Second)
	}
	for _, w := range tr.Status()[0].Burn {
		if !w.Alerting {
			t.Fatalf("window %s not alerting under total burn: %+v", w.Name, w)
		}
	}
	// After the short windows slide past the incident the alert clears,
	// even though the 1h/6h windows still remember it.
	advance(31 * time.Minute)
	for i := 0; i < 60; i++ {
		tr.ObserveLatency("lat", time.Millisecond)
		advance(time.Second)
	}
	for _, w := range tr.Status()[0].Burn {
		if w.Alerting {
			t.Fatalf("window %s still alerting after recovery: %+v", w.Name, w)
		}
		if w.LongBurn == 0 {
			t.Fatalf("window %s long burn forgot the incident", w.Name)
		}
	}
}

func TestWindowSliding(t *testing.T) {
	clock, advance := fakeClock(time.Unix(1_700_000_000, 0))
	tr := NewWithClock(clock)
	if err := tr.Register(Objective{Name: "w", Target: 0.5, Window: time.Minute}); err != nil {
		t.Fatal(err)
	}
	tr.Observe("w", false)
	advance(2 * time.Minute)
	s := tr.Status()[0]
	if s.Good != 0 || s.Bad != 0 || s.Compliance != 1 {
		t.Fatalf("expired window still counts: %+v", s)
	}
}

func TestUnknownObjectiveIgnored(t *testing.T) {
	tr := New()
	tr.Observe("ghost", true)
	tr.ObserveLatency("ghost", time.Second)
	if len(tr.Status()) != 0 {
		t.Fatal("phantom objective appeared")
	}
}

func TestConsumeMapsEvents(t *testing.T) {
	clock, _ := fakeClock(time.Unix(1_700_000_000, 0))
	tr := NewWithClock(clock)
	for _, o := range DefaultObjectives() {
		if err := tr.Register(o); err != nil {
			t.Fatal(err)
		}
	}
	tr.Consume(events.Event{Type: events.TypePlanServed,
		Fields: map[string]any{"wall_ns": int64(time.Millisecond)}})
	tr.Consume(events.Event{Type: events.TypePlanServed,
		Fields: map[string]any{"wall_ns": float64(10 * time.Second)}})
	tr.Consume(events.Event{Type: events.TypeShed,
		Fields: map[string]any{"reason": "queue_full"}})
	tr.Consume(events.Event{Type: events.TypeWfEnd,
		Fields: map[string]any{"status": "success"}})
	tr.Consume(events.Event{Type: events.TypeWfEnd,
		Fields: map[string]any{"status": "rolledback"}})
	tr.Consume(events.Event{Type: events.TypeDriftRepaired})
	tr.Consume(events.Event{Type: events.TypeChangeFailed})

	byName := map[string]Status{}
	for _, s := range tr.Status() {
		byName[s.Name] = s
	}
	if s := byName[ObjPlanLatency]; s.Good != 1 || s.Bad != 1 {
		t.Fatalf("plan latency = %+v", s)
	}
	if s := byName[ObjAdmission]; s.Good != 2 || s.Bad != 1 {
		t.Fatalf("admission = %+v", s)
	}
	if s := byName[ObjChangeSuccess]; s.Good != 2 || s.Bad != 2 {
		t.Fatalf("change success = %+v", s)
	}
}

// Every type ConsumedTypes lists must move an objective, and a type it
// does not list must not: feeds subscribe with the list.
func TestConsumedTypesMatchConsume(t *testing.T) {
	observed := func(typ events.Type) int64 {
		tr := New()
		for _, o := range DefaultObjectives() {
			if err := tr.Register(o); err != nil {
				t.Fatal(err)
			}
		}
		tr.Consume(events.Event{Type: typ, Fields: map[string]any{"wall_ns": int64(1), "status": "success"}})
		var n int64
		for _, s := range tr.Status() {
			n += s.Good + s.Bad
		}
		return n
	}
	types := ConsumedTypes()
	if len(types) != 5 {
		t.Fatalf("ConsumedTypes() = %v, want the five types Consume documents", types)
	}
	for _, typ := range types {
		if observed(typ) == 0 {
			t.Errorf("%s is listed but Consume ignores it", typ)
		}
	}
	for _, typ := range []events.Type{events.TypeCacheHit, events.TypeCacheMiss, events.TypeAdmitted, events.TypeWfStart} {
		if observed(typ) != 0 {
			t.Errorf("%s is not listed but Consume reads it", typ)
		}
	}
}

func TestFeedConsumesSubscription(t *testing.T) {
	tr := New()
	for _, o := range DefaultObjectives() {
		if err := tr.Register(o); err != nil {
			t.Fatal(err)
		}
	}
	j := events.NewJournal(64)
	sub := j.Subscribe(events.Filter{Types: ConsumedTypes()}, 16)
	done := make(chan struct{})
	go func() { defer close(done); tr.Feed(sub) }()
	j.Publish(events.Event{Type: events.TypeShed})
	j.Publish(events.Event{Type: events.TypePlanServed,
		Fields: map[string]any{"wall_ns": int64(time.Millisecond)}})
	deadline := time.After(5 * time.Second)
	for {
		byName := map[string]Status{}
		for _, s := range tr.Status() {
			byName[s.Name] = s
		}
		if s := byName[ObjAdmission]; s.Good == 1 && s.Bad == 1 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("feed never applied events: %+v", tr.Status())
		case <-time.After(10 * time.Millisecond):
		}
	}
	sub.Close()
	<-done
}

func TestSyncMetricsExports(t *testing.T) {
	clock, advance := fakeClock(time.Unix(1_700_000_000, 0))
	tr := NewWithClock(clock)
	if err := tr.Register(Objective{Name: "exported", Target: 0.9}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		tr.Observe("exported", i != 0)
		advance(time.Second)
	}
	tr.SyncMetrics()
	var sb strings.Builder
	if err := obs.Default.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		`cornet_slo_compliance{objective="exported"} 0.9`,
		`cornet_slo_burn_rate{objective="exported",window="fast"} 1`,
		`cornet_slo_alerting{objective="exported",window="fast"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}
