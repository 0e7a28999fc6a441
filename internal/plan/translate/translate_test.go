package translate

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"cornet/internal/inventory"
	"cornet/internal/plan/intent"
	"cornet/internal/plan/solver"
	"cornet/internal/topology"
)

// buildInv creates n elements spread over markets/pools/timezones.
func buildInv(n int) *inventory.Inventory {
	inv := inventory.New()
	for i := 0; i < n; i++ {
		inv.MustAdd(&inventory.Element{
			ID: fmt.Sprintf("id%04d", i),
			Attributes: map[string]string{
				inventory.AttrMarket:   fmt.Sprintf("m%d", i%3),
				"pool_id":              fmt.Sprintf("p%d", i%2),
				inventory.AttrTimezone: fmt.Sprintf("%d", -5-(i%2)),
				inventory.AttrUSID:     fmt.Sprintf("u%d", i/2),
			},
		})
	}
	return inv
}

func baseRequest(constraints string) string {
	return `{
	  "scheduling_window": {"start": "2020-07-01 00:00:00", "end": "2020-07-06 00:00:00",
	    "granularity": {"metric":"day","value":1}},
	  "schedulable_attribute": "common_id",
	  "constraints": [` + constraints + `]
	}`
}

func parse(t *testing.T, doc string) *intent.Request {
	t.Helper()
	r, err := intent.Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestTranslateGlobalConcurrency(t *testing.T) {
	req := parse(t, baseRequest(`{"name":"concurrency","base_attribute":"common_id","default_capacity":4}`))
	res, err := Translate(req, buildInv(10), Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Model
	if len(m.Items) != 10 || m.NumSlots != 5 {
		t.Fatalf("items=%d slots=%d", len(m.Items), m.NumSlots)
	}
	if len(m.Capacities) != 1 || m.Capacities[0].Cap != 4 || len(m.Capacities[0].Sets[0]) != 10 {
		t.Fatalf("capacities = %+v", m.Capacities)
	}
	if !m.ZeroConflict {
		t.Fatal("default must be zero tolerance")
	}
}

func TestTranslatePerAggregateConcurrency(t *testing.T) {
	req := parse(t, baseRequest(
		`{"name":"concurrency","base_attribute":"common_id","aggregate_attribute":"market","default_capacity":2}`))
	res, err := Translate(req, buildInv(9), Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := res.Model.Capacities[0]
	if len(c.Sets) != 3 { // three markets
		t.Fatalf("sets = %d", len(c.Sets))
	}
	total := 0
	for _, s := range c.Sets {
		total += len(s)
	}
	if total != 9 {
		t.Fatalf("set membership total = %d", total)
	}
}

func TestTranslateNonESAConcurrencyUsesLinkingVariables(t *testing.T) {
	req := parse(t, baseRequest(
		`{"name":"concurrency","base_attribute":"market","default_capacity":1}`))
	res, err := Translate(req, buildInv(9), Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Model
	if len(m.GroupCounts) != 1 || m.GroupCounts[0].Cap != 1 || len(m.GroupCounts[0].Groups) != 3 {
		t.Fatalf("group counts = %+v", m.GroupCounts)
	}
	if s := m.Stats(); s.DerivedVars == 0 || s.LinkRows == 0 {
		t.Fatalf("linking encoding missing: %+v", s)
	}
	// Solve: with 1 market per slot and markets of size 3, makespan is 3.
	sched, err := solver.SolveContext(context.Background(), m, solver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sched.Unscheduled != 0 || sched.Makespan != 3 {
		t.Fatalf("sched = %+v", sched)
	}
}

func TestTranslateConsistencyUSID(t *testing.T) {
	req := parse(t, baseRequest(
		`{"name":"consistency","attribute":"usid"},
		 {"name":"concurrency","base_attribute":"common_id","default_capacity":4}`))
	res, err := Translate(req, buildInv(8), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Model.SameSlot) != 4 { // 8 elements / 2 per USID
		t.Fatalf("same-slot groups = %d", len(res.Model.SameSlot))
	}
	sched, err := solver.SolveContext(context.Background(), res.Model, solver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Co-USID items share slots.
	for g := 0; g < 4; g++ {
		if sched.Slots[2*g] != sched.Slots[2*g+1] {
			t.Fatalf("usid u%d split: %v", g, sched.Slots)
		}
	}
}

func TestTranslateUniformityNumericTimezones(t *testing.T) {
	req := parse(t, baseRequest(
		`{"name":"uniformity","attribute":"timezone","value":0},
		 {"name":"concurrency","base_attribute":"common_id","default_capacity":10}`))
	res, err := Translate(req, buildInv(6), Options{})
	if err != nil {
		t.Fatal(err)
	}
	u := res.Model.Uniform[0]
	if u.MaxDist != 0 {
		t.Fatalf("maxdist = %v", u.MaxDist)
	}
	// Values parse numerically: -5 and -6.
	seen := map[float64]bool{}
	for _, v := range u.Values {
		seen[v] = true
	}
	if !seen[-5] || !seen[-6] {
		t.Fatalf("values = %v", u.Values)
	}
	sched, err := solver.SolveContext(context.Background(), res.Model, solver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// No slot mixes timezones.
	byslot := map[int]map[float64]bool{}
	for i, s := range sched.Slots {
		if s < 0 {
			continue
		}
		if byslot[s] == nil {
			byslot[s] = map[float64]bool{}
		}
		byslot[s][u.Values[i]] = true
	}
	for s, tzs := range byslot {
		if len(tzs) > 1 {
			t.Fatalf("slot %d mixes timezones %v", s, tzs)
		}
	}
}

func TestTranslateUniformityNonNumericRanks(t *testing.T) {
	inv := inventory.New()
	for i, hw := range []string{"hwA", "hwB", "hwA", "hwC"} {
		inv.MustAdd(&inventory.Element{ID: fmt.Sprintf("e%d", i),
			Attributes: map[string]string{inventory.AttrHWVersion: hw}})
	}
	req := parse(t, baseRequest(`{"name":"uniformity","attribute":"hw_version","value":0}`))
	res, err := Translate(req, inv, Options{})
	if err != nil {
		t.Fatal(err)
	}
	v := res.Model.Uniform[0].Values
	if v[0] != v[2] || v[0] == v[1] || v[1] == v[3] {
		t.Fatalf("ranked values = %v", v)
	}
}

func TestTranslateLocalize(t *testing.T) {
	req := parse(t, baseRequest(
		`{"name":"localize","attribute":"market"},
		 {"name":"concurrency","base_attribute":"common_id","default_capacity":1}`))
	res, err := Translate(req, buildInv(4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Model.Localized) != 1 {
		t.Fatalf("localized = %+v", res.Model.Localized)
	}
	sched, err := solver.SolveContext(context.Background(), res.Model, solver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v := res.Model.Check(sched.Slots); len(v) > 0 {
		t.Fatalf("violations: %v", v)
	}
}

func TestTranslateFrozenElements(t *testing.T) {
	doc := `{
	  "scheduling_window": {"start": "2020-07-01 00:00:00", "end": "2020-07-04 00:00:00",
	    "granularity": {"metric":"day","value":1}},
	  "schedulable_attribute": "common_id",
	  "frozen_elements": [
	    {"common_id": "id0000"},
	    {"market": "m1", "start": "2020-07-01 00:00:00", "end": "2020-07-02 00:00:00"}
	  ],
	  "constraints": [{"name":"concurrency","base_attribute":"common_id","default_capacity":10}]
	}`
	req := parse(t, doc)
	res, err := Translate(req, buildInv(6), Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Model
	// id0000 fully frozen: all 3 slots banned.
	if len(m.Forbidden[0]) != 3 {
		t.Fatalf("forbidden[0] = %v", m.Forbidden[0])
	}
	// Market m1 members (ids 1 and 4) frozen on slot 0 only.
	if len(m.Forbidden[1]) != 1 || m.Forbidden[1][0] != 0 {
		t.Fatalf("forbidden[1] = %v", m.Forbidden[1])
	}
	if len(m.Forbidden[4]) != 1 {
		t.Fatalf("forbidden[4] = %v", m.Forbidden[4])
	}
	sched, err := solver.SolveContext(context.Background(), m, solver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sched.Slots[0] != -1 {
		t.Fatalf("fully frozen element scheduled: %v", sched.Slots)
	}
}

func TestTranslateConflictTableAndScope(t *testing.T) {
	doc := `{
	  "scheduling_window": {"start": "2020-07-01 00:00:00", "end": "2020-07-04 00:00:00",
	    "granularity": {"metric":"day","value":1}},
	  "schedulable_attribute": "common_id",
	  "conflict_table": {
	    "id0000": [{"start": "2020-07-01 00:00:00", "end": "2020-07-02 00:00:00", "tickets": ["CHG1"]}]
	  },
	  "constraints": [
	    {"name":"conflict_handling","value":"minimize-conflicts"},
	    {"name":"concurrency","base_attribute":"common_id","default_capacity":10}
	  ]
	}`
	req := parse(t, doc)
	inv := buildInv(4)
	// id0000 and id0001 share a service chain: the conflict must propagate.
	g := topology.New()
	if err := g.RegisterChain("svc", []string{"id0000", "id0001"}); err != nil {
		t.Fatal(err)
	}
	res, err := Translate(req, inv, Options{Topology: g})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Model
	if m.ZeroConflict {
		t.Fatal("minimize-conflicts not honored")
	}
	if len(m.ConflictSlots[0]) != 1 || m.ConflictSlots[0][0] != 0 {
		t.Fatalf("conflict slots[0] = %v", m.ConflictSlots[0])
	}
	if len(m.ConflictSlots[1]) != 1 || m.ConflictSlots[1][0] != 0 {
		t.Fatalf("conflict scope not propagated: %v", m.ConflictSlots[1])
	}
	if len(m.ConflictSlots[2]) != 0 {
		t.Fatalf("conflict leaked to unrelated element: %v", m.ConflictSlots[2])
	}
}

func TestTranslateNonESAScheduling(t *testing.T) {
	// Schedule whole markets (ESA = market): items are markets weighted by
	// their element count; conflicts tracked per common_id lift upward.
	doc := `{
	  "scheduling_window": {"start": "2020-07-01 00:00:00", "end": "2020-07-04 00:00:00",
	    "granularity": {"metric":"day","value":1}},
	  "schedulable_attribute": "market",
	  "conflict_attribute": "common_id",
	  "conflict_table": {
	    "id0001": [{"start": "2020-07-01 00:00:00", "end": "2020-07-02 00:00:00"}]
	  },
	  "constraints": [
	    {"name":"concurrency","base_attribute":"market","default_capacity":6}
	  ]
	}`
	req := parse(t, doc)
	res, err := Translate(req, buildInv(9), Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Model
	if len(m.Items) != 3 {
		t.Fatalf("items = %+v", m.Items)
	}
	for _, it := range m.Items {
		if it.Weight != 3 {
			t.Fatalf("market weight = %d", it.Weight)
		}
	}
	// id0001 is in market m1 -> item index of m1 has the conflict.
	var m1 int = -1
	for i, it := range m.Items {
		if it.ID == "m1" {
			m1 = i
		}
	}
	if m1 == -1 || len(m.ConflictSlots[m1]) != 1 {
		t.Fatalf("lifted conflict = %+v", m.ConflictSlots)
	}
	// Weighted global capacity: cap 6 fits two markets per slot.
	sched, err := solver.SolveContext(context.Background(), m, solver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sched.Makespan != 2 {
		t.Fatalf("makespan = %d", sched.Makespan)
	}
	// Expand maps markets back to elements.
	a := res.Expand(sched)
	total := len(a.Leftovers)
	for _, ids := range a.BySlot {
		total += len(ids)
	}
	if total != 9 {
		t.Fatalf("expanded element count = %d", total)
	}
}

func TestTranslateErrors(t *testing.T) {
	req := parse(t, baseRequest(`{"name":"concurrency","base_attribute":"common_id","default_capacity":4}`))
	if _, err := Translate(req, inventory.New(), Options{}); err == nil {
		t.Fatal("empty inventory accepted")
	}
	req2 := parse(t, baseRequest(`{"name":"localize","attribute":"nonexistent_attr"}`))
	if _, err := Translate(req2, buildInv(4), Options{}); err == nil || !strings.Contains(err.Error(), "absent") {
		t.Fatalf("missing attribute: %v", err)
	}
	req3 := parse(t, baseRequest(`{"name":"uniformity","attribute":"ghost","value":1}`))
	if _, err := Translate(req3, buildInv(4), Options{}); err == nil {
		t.Fatal("uniformity over missing attribute accepted")
	}
}

func TestTranslateListing1EndToEnd(t *testing.T) {
	// The full Appendix B composition over a small inventory: three
	// concurrency variants + uniformity + localize, minimize conflicts.
	doc := `{
	  "scheduling_window": {"start": "2020-07-01 00:00:00", "end": "2020-07-08 00:00:00",
	    "granularity": {"metric":"day","value":1}},
	  "schedulable_attribute": "common_id",
	  "conflict_attribute": "common_id",
	  "constraints": [
	    {"name": "conflict_handling", "value": "minimize-conflicts"},
	    {"name": "concurrency", "base_attribute": "common_id", "operator": "<=",
	     "granularity": {"metric":"day","value":1}, "default_capacity": 6},
	    {"name": "concurrency", "base_attribute": "market", "operator": "<=",
	     "granularity": {"metric":"day","value":1}, "default_capacity": 2},
	    {"name": "concurrency", "base_attribute": "common_id", "aggregate_attribute": "pool_id",
	     "operator": "<=", "granularity": {"metric":"day","value":1}, "default_capacity": 3},
	    {"name": "uniformity", "attribute": "timezone", "value": 1},
	    {"name": "localize", "attribute": "market"}
	  ]
	}`
	req := parse(t, doc)
	inv := buildInv(12)
	res, err := Translate(req, inv, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := solver.SolveContext(context.Background(), res.Model, solver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v := res.Model.Check(sched.Slots); len(v) > 0 {
		t.Fatalf("violations: %v", v)
	}
	if sched.Unscheduled != 0 {
		t.Fatalf("unscheduled = %d", sched.Unscheduled)
	}
	// The render should include every section of Listing 2's structure.
	out := res.Model.Render()
	for _, want := range []string{"capacity", "Y_", "uniformity", "localize", "solve minimize"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestTranslateWeeklyGranularity(t *testing.T) {
	// Daily slots, weekly concurrency budget -> 7-slot capacity bucket.
	doc := `{
	  "scheduling_window": {"start": "2020-07-01 00:00:00", "end": "2020-07-15 00:00:00",
	    "granularity": {"metric":"day","value":1}},
	  "schedulable_attribute": "common_id",
	  "constraints": [
	    {"name": "concurrency", "base_attribute": "common_id",
	     "granularity": {"metric": "week", "value": 1}, "default_capacity": 3}
	  ]
	}`
	req := parse(t, doc)
	res, err := Translate(req, buildInv(6), Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := res.Model.Capacities[0]
	if c.BucketSlots != 7 {
		t.Fatalf("BucketSlots = %d", c.BucketSlots)
	}
	sched, err := solver.SolveContext(context.Background(), res.Model, solver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	weeks := map[int]int{}
	for _, s := range sched.Slots {
		if s >= 0 {
			weeks[s/7]++
		}
	}
	for w, n := range weeks {
		if n > 3 {
			t.Fatalf("week %d holds %d > 3", w, n)
		}
	}
	// A finer-than-slot granularity is rejected.
	bad := `{
	  "scheduling_window": {"start": "2020-07-01 00:00:00", "end": "2020-07-15 00:00:00",
	    "granularity": {"metric":"day","value":1}},
	  "schedulable_attribute": "common_id",
	  "constraints": [
	    {"name": "concurrency", "base_attribute": "common_id",
	     "granularity": {"metric": "hour", "value": 6}, "default_capacity": 3}
	  ]
	}`
	if _, err := Translate(parse(t, bad), buildInv(6), Options{}); err == nil {
		t.Fatal("sub-slot granularity accepted")
	}
}

func TestTranslateDurations(t *testing.T) {
	inv := inventory.New()
	inv.MustAdd(&inventory.Element{ID: "retune-1", Attributes: map[string]string{
		inventory.AttrDuration: "4",
	}})
	inv.MustAdd(&inventory.Element{ID: "cfg-1", Attributes: map[string]string{}})
	doc := `{
	  "scheduling_window": {"start": "2020-07-01 00:00:00", "end": "2020-07-11 00:00:00",
	    "granularity": {"metric":"day","value":1}},
	  "schedulable_attribute": "common_id",
	  "change_duration": 2,
	  "constraints": [
	    {"name": "concurrency", "base_attribute": "common_id", "default_capacity": 1}
	  ]
	}`
	res, err := Translate(parse(t, doc), inv, Options{RequireAll: true})
	if err != nil {
		t.Fatal(err)
	}
	// Element attribute wins; request-level default covers the rest.
	if res.Model.Items[0].Duration != 4 || res.Model.Items[1].Duration != 2 {
		t.Fatalf("durations = %+v", res.Model.Items)
	}
	sched, err := solver.SolveContext(context.Background(), res.Model, solver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v := res.Model.Check(sched.Slots); len(v) > 0 {
		t.Fatalf("violations: %v", v)
	}
	// With cap 1 the two spans (4 and 2 windows) cannot overlap.
	if sched.Makespan != 6 {
		t.Fatalf("makespan = %d, want 6", sched.Makespan)
	}
}
