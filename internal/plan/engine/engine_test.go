package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

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

// fakeBackend scripts a backend for deterministic race tests.
type fakeBackend struct {
	name string
	res  Result
	// block waits for ctx cancellation and returns its error.
	block bool
	// sleep delays the result while IGNORING cancellation, modelling a
	// backend that finishes just after losing the race.
	sleep     time.Duration
	sawCancel atomic.Bool
	exited    atomic.Bool
}

func (f *fakeBackend) Name() string           { return f.name }
func (f *fakeBackend) Supports(*Request) bool { return true }

func (f *fakeBackend) Solve(ctx context.Context, req *Request, opt Options) (Result, Stats, error) {
	defer f.exited.Store(true)
	st := Stats{Backend: f.name}
	if f.block {
		<-ctx.Done()
		f.sawCancel.Store(true)
		return Result{}, st, fmt.Errorf("%s: %w", f.name, ctx.Err())
	}
	if f.sleep > 0 {
		time.Sleep(f.sleep)
	}
	return f.res, st, nil
}

func TestParsePolicy(t *testing.T) {
	for in, want := range map[string]Policy{
		"": Threshold, "auto": Threshold, "threshold": Threshold,
		"solver": ForceSolver, "heuristic": ForceHeuristic, "portfolio": Portfolio,
	} {
		got, err := ParsePolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParsePolicy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Fatal("ParsePolicy(bogus) accepted")
	}
}

func TestThresholdPicksSolverBelowAndHeuristicAbove(t *testing.T) {
	e := New()
	req := &Request{Model: testModel(6, 3), Instance: testInstance(2, 2, 2), Size: 6}
	res, stats, err := e.Plan(context.Background(), req, Options{ScaleThreshold: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 1 || stats[0].Backend != "solver" || !stats[0].Winner {
		t.Fatalf("stats = %+v, want single winning solver entry", stats)
	}
	if len(res.Assignment) != 6 || len(res.Leftovers) != 0 {
		t.Fatalf("result = %+v", res)
	}

	req.Size = 500
	_, stats, err = e.Plan(context.Background(), req, Options{ScaleThreshold: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 1 || stats[0].Backend != "heuristic" {
		t.Fatalf("stats = %+v, want heuristic above threshold", stats)
	}
}

func TestThresholdFallsBackToSupportedBackend(t *testing.T) {
	e := New()
	// Small request (threshold prefers the solver) carrying only the
	// heuristic representation: the engine must fall back, not fail.
	req := &Request{Instance: testInstance(1, 2, 2), Size: 4}
	_, stats, err := e.Plan(context.Background(), req, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats[0].Backend != "heuristic" {
		t.Fatalf("backend = %s, want heuristic fallback", stats[0].Backend)
	}
}

func TestForcePolicyWithoutRepresentationFails(t *testing.T) {
	e := New()
	req := &Request{Instance: testInstance(1, 1, 2), Size: 2}
	if _, _, err := e.Plan(context.Background(), req, Options{Policy: ForceSolver}); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("err = %v, want ErrUnsupported", err)
	}
}

func TestPortfolioCancelsLoser(t *testing.T) {
	fast := &fakeBackend{name: "fast", res: Result{Assignment: map[string]int{"a": 0}}}
	slow := &fakeBackend{name: "slow", block: true}
	e := &Engine{Solver: fast, Heuristic: slow}
	res, stats, err := e.Plan(context.Background(), &Request{}, Options{Policy: Portfolio})
	if err != nil {
		t.Fatal(err)
	}
	if res.Assignment["a"] != 0 || len(res.Assignment) != 1 {
		t.Fatalf("result = %+v, want fast backend's schedule", res)
	}
	// Plan drains every backend before returning, so the loser has exited
	// and observed the cancellation by now — no sleeps needed.
	if !slow.exited.Load() {
		t.Fatal("losing backend goroutine still running after Plan returned")
	}
	if !slow.sawCancel.Load() {
		t.Fatal("losing backend never observed ctx cancellation")
	}
	var fastSt, slowSt *Stats
	for i := range stats {
		switch stats[i].Backend {
		case "fast":
			fastSt = &stats[i]
		case "slow":
			slowSt = &stats[i]
		}
	}
	if fastSt == nil || !fastSt.Winner {
		t.Fatalf("stats = %+v, want fast flagged winner", stats)
	}
	if slowSt == nil || !strings.Contains(slowSt.Err, context.Canceled.Error()) {
		t.Fatalf("stats = %+v, want loser stats recording context cancellation", stats)
	}
}

func TestPortfolioLateBetterResultWins(t *testing.T) {
	// The sprinter leaves 2 items unplaced; the slow backend ignores the
	// cancellation and delivers a complete schedule. Fewer leftovers wins.
	fast := &fakeBackend{name: "fast", res: Result{Assignment: map[string]int{"a": 0}, Leftovers: []string{"b", "c"}}}
	slow := &fakeBackend{name: "slow", sleep: 10 * time.Millisecond,
		res: Result{Assignment: map[string]int{"a": 0, "b": 1, "c": 1}}}
	e := &Engine{Solver: fast, Heuristic: slow}
	res, stats, err := e.Plan(context.Background(), &Request{}, Options{Policy: Portfolio})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Leftovers) != 0 || len(res.Assignment) != 3 {
		t.Fatalf("result = %+v, want the complete late schedule", res)
	}
	for _, st := range stats {
		if st.Winner != (st.Backend == "slow") {
			t.Fatalf("stats = %+v, want slow flagged as winner", stats)
		}
	}
}

func TestPortfolioAllBackendsFailing(t *testing.T) {
	bad := &fakeBackend{name: "bad", block: true}
	worse := &fakeBackend{name: "worse", block: true}
	e := &Engine{Solver: bad, Heuristic: worse}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := e.Plan(ctx, &Request{}, Options{Policy: Portfolio})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
}

func TestPortfolioRealBackends(t *testing.T) {
	e := New()
	req := &Request{Model: testModel(8, 4), Instance: testInstance(2, 2, 2), Size: 8}
	res, stats, err := e.Plan(context.Background(), req, Options{Policy: Portfolio})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Assignment) == 0 {
		t.Fatalf("result = %+v, want a schedule", res)
	}
	winners := 0
	for _, st := range stats {
		if st.Winner {
			winners++
		}
	}
	if winners != 1 {
		t.Fatalf("stats = %+v, want exactly one winner", stats)
	}
}

func TestPortfolioSingleRepresentationDegenerates(t *testing.T) {
	e := New()
	req := &Request{Instance: testInstance(1, 2, 3), Size: 6}
	_, stats, err := e.Plan(context.Background(), req, Options{Policy: Portfolio})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 1 || stats[0].Backend != "heuristic" || !stats[0].Winner {
		t.Fatalf("stats = %+v, want lone heuristic winner", stats)
	}
}

func TestFromScheduleCopiesStealCounters(t *testing.T) {
	req := &Request{Model: testModel(4, 2)}
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
