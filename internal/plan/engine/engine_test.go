package engine

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"cornet/internal/inventory"
	"cornet/internal/plan/heuristic"
	"cornet/internal/plan/model"
)

func testModel(n, slots int) *model.Model {
	items := make([]model.Item, n)
	for i := range items {
		items[i] = model.Item{ID: fmt.Sprintf("n%03d", i)}
	}
	sets := [][]int{make([]int, n)}
	for i := range sets[0] {
		sets[0][i] = i
	}
	return &model.Model{
		Name:       "engine-test",
		Items:      items,
		NumSlots:   slots,
		Capacities: []model.Capacity{{Name: "g", Sets: sets, Cap: (n + slots - 1) / slots}},
	}
}

func testInstance(markets, tacs, usids int) *heuristic.Instance {
	inv := inventory.New()
	id := 0
	for m := 0; m < markets; m++ {
		for t := 0; t < tacs; t++ {
			for u := 0; u < usids; u++ {
				inv.MustAdd(&inventory.Element{
					ID: fmt.Sprintf("node-%04d", id),
					Attributes: map[string]string{
						inventory.AttrMarket:   fmt.Sprintf("m%d", m),
						inventory.AttrTAC:      fmt.Sprintf("tac-%d-%d", m, t),
						inventory.AttrUSID:     fmt.Sprintf("u-%d-%d-%d", m, t, u),
						inventory.AttrTimezone: fmt.Sprintf("%d", -5-m%3),
						inventory.AttrEMS:      fmt.Sprintf("ems%d", id%4),
					},
				})
				id++
			}
		}
	}
	return &heuristic.Instance{Inv: inv, MaxTimeslots: 30, SlotCapacity: 10, Seed: 1}
}

// itemExpand maps a model schedule onto element ids when item IDs double
// as element ids.
func itemExpand(m *model.Model) func(model.Schedule) (map[string]int, []string) {
	return func(sched model.Schedule) (map[string]int, []string) {
		assignment := make(map[string]int, len(sched.Slots))
		var leftovers []string
		for i, t := range sched.Slots {
			if t < 0 {
				leftovers = append(leftovers, m.Items[i].ID)
				continue
			}
			assignment[m.Items[i].ID] = t
		}
		return assignment, leftovers
	}
}

// modelRequest is a solver request over testModel(n, slots).
func modelRequest(n, slots int) *Request {
	m := testModel(n, slots)
	return &Request{Model: m, Expand: itemExpand(m), Size: n}
}

func TestParsePolicy(t *testing.T) {
	for in, want := range map[string]Policy{
		"": Threshold, "auto": Threshold, "threshold": Threshold,
		"solver": ForceSolver, "heuristic": ForceHeuristic,
	} {
		got, err := ParsePolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParsePolicy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, bad := range []string{"bogus", "portfolio"} {
		if _, err := ParsePolicy(bad); err == nil {
			t.Fatalf("ParsePolicy(%s) accepted", bad)
		}
	}
}

// TestPlanRunsTheCarriedRepresentation checks the engine runs the backend
// whose representation the request carries, as the one flagged winner.
func TestPlanRunsTheCarriedRepresentation(t *testing.T) {
	var e *Engine // nil: the default backends
	res, stats, err := e.Plan(context.Background(), modelRequest(6, 3), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 1 || stats[0].Backend != "solver" || !stats[0].Winner {
		t.Fatalf("stats = %+v, want single winning solver entry", stats)
	}
	if len(res.Assignment) != 6 || len(res.Leftovers) != 0 {
		t.Fatalf("result = %+v", res)
	}

	_, stats, err = e.Plan(context.Background(), &Request{Instance: testInstance(2, 2, 2), Size: 8}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 1 || stats[0].Backend != "heuristic" || !stats[0].Winner {
		t.Fatalf("stats = %+v, want single winning heuristic entry", stats)
	}
	if stats[0].Restarts != heuristic.DefaultRestarts {
		t.Fatalf("restarts = %d, want the default %d", stats[0].Restarts, heuristic.DefaultRestarts)
	}
}

func TestPlanNeedsExactlyOneRepresentation(t *testing.T) {
	both := modelRequest(2, 2)
	both.Instance = testInstance(1, 1, 2)
	for name, req := range map[string]*Request{"neither": {Size: 2}, "both": both} {
		if _, _, err := (&Engine{}).Plan(context.Background(), req, Options{}); !errors.Is(err, ErrUnsupported) {
			t.Fatalf("%s: err = %v, want ErrUnsupported", name, err)
		}
	}
}

func TestFromScheduleCopiesStealCounters(t *testing.T) {
	req := modelRequest(4, 2)
	sched := model.Schedule{
		Slots: []int{0, 0, 1, 1}, Cost: 7, Optimal: true, Workers: 4,
		Nodes: 100, Steals: 3, Splits: 9, ReplayNodes: 21,
	}
	var st Stats
	fromSchedule(req, sched, &st)
	if st.Steals != 3 || st.Splits != 9 || st.ReplayNodes != 21 {
		t.Fatalf("steal counters not copied: %+v", st)
	}
}

func TestChainStealComposesAndTolerantOfNil(t *testing.T) {
	if chainSteal(nil, nil) != nil {
		t.Fatal("nil+nil should stay nil (solver skips the callback entirely)")
	}
	var order []string
	prev := func(s, sp, r int64) { order = append(order, fmt.Sprintf("prev:%d/%d/%d", s, sp, r)) }
	notify := func(s, sp, r int64) { order = append(order, fmt.Sprintf("notify:%d/%d/%d", s, sp, r)) }
	if got := chainSteal(prev, nil); got == nil {
		t.Fatal("prev must survive a nil notifier")
	} else {
		got(1, 2, 3)
	}
	chainSteal(prev, notify)(4, 5, 6)
	chainSteal(nil, notify)(7, 8, 9)
	want := []string{"prev:1/2/3", "prev:4/5/6", "notify:4/5/6", "notify:7/8/9"}
	if len(order) != len(want) {
		t.Fatalf("calls %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("call %d = %s, want %s", i, order[i], want[i])
		}
	}
}
