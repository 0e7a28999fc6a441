package serve

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"cornet/internal/catalog"
	"cornet/internal/core"
	"cornet/internal/netgen"
	"cornet/internal/plan/cache"
	"cornet/internal/plan/engine"
	"cornet/internal/plan/intent"
	"cornet/internal/plan/model"
)

// oracleWarmSeed is warmSeed as it stood before the scan learned to stop
// early: every candidate's delta counted in full, both directions. The
// differential test below holds the current scan to its choice.
func (s *Server) oracleWarmSeed(m *model.Model, sigs map[string]uint64, selfKey string) map[string]int {
	if s.warmDelta < 0 {
		return nil
	}
	cands := s.cache.Recent(m.FamilyKey(), s.warmScan)
	var best map[string]int
	bestDelta := s.warmDelta + 1
	for _, c := range cands {
		if c.Key == selfKey || len(c.ItemSlots) == 0 {
			continue
		}
		delta := 0
		for id, sig := range sigs {
			if old, ok := c.ItemSigs[id]; !ok || old != sig {
				delta++
			}
		}
		for id := range c.ItemSigs {
			if _, ok := sigs[id]; !ok {
				delta++
			}
		}
		if delta < bestDelta {
			bestDelta = delta
			best = c.ItemSlots
		}
	}
	return best
}

// TestWarmSeedMatchesOracle fills a cache with edits of one signature set
// — unchanged, within WarmDelta, beyond it; items changed, added and
// removed; equal deltas in both recency orders; other families, the
// request's own key, entries without an assignment — and checks the scan
// picks the very map the full count picks.
func TestWarmSeedMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	m := &model.Model{Name: "fam", NumSlots: 4}
	srv := New(core.New(nil), Config{})
	t.Cleanup(srv.Stop)
	edit := func(base map[string]uint64, edits int) map[string]uint64 {
		out := make(map[string]uint64, len(base))
		for id, sig := range base {
			out[id] = sig
		}
		for ; edits > 0; edits-- {
			id := fmt.Sprint("i", rng.Intn(len(base)+4)) // the last four are additions
			switch _, ok := out[id]; {
			case ok && rng.Intn(2) == 0:
				delete(out, id)
			default:
				out[id] = rng.Uint64()
			}
		}
		return out
	}
	picked := map[string]int{}
	for trial := 0; trial < 2500; trial++ {
		srv.cache = cache.New(64, 0)
		srv.warmDelta = []int{-1, 0, 3, 8}[rng.Intn(4)]
		srv.warmScan = []int{1, 4, 32}[rng.Intn(3)]
		base := map[string]uint64{}
		for i := 4 + rng.Intn(12); i > 0; i-- {
			base[fmt.Sprint("i", i)] = rng.Uint64()
		}
		for k, n := 0, rng.Intn(40); k < n; k++ {
			e := cache.Entry{
				Key:       fmt.Sprint("k", k),
				Family:    m.FamilyKey(),
				ItemSlots: map[string]int{"i1": k},
				ItemSigs:  edit(base, []int{0, 0, 1, 2, 3, 8, 9, 12}[rng.Intn(8)]),
			}
			switch rng.Intn(12) {
			case 0:
				e.Family = "other|4|false|false"
			case 1:
				e.ItemSlots = nil
			case 2:
				e.Key = "self"
			}
			srv.cache.Put(e)
		}
		sigs := edit(base, []int{0, 0, 1, 4}[rng.Intn(4)])
		got, want := srv.warmSeed(m, sigs, "self"), srv.oracleWarmSeed(m, sigs, "self")
		if reflect.ValueOf(got).Pointer() != reflect.ValueOf(want).Pointer() {
			t.Fatalf("trial %d (delta %d, scan %d): scan picked %v, full count picked %v",
				trial, srv.warmDelta, srv.warmScan, got, want)
		}
		if want == nil {
			picked["none"]++
		} else {
			picked["seed"]++
		}
	}
	if picked["none"] < 100 || picked["seed"] < 100 {
		t.Fatalf("lopsided trials: %v", picked)
	}
}

// A seed the solver drops as infeasible warm-started nothing: the response
// says so, and the warm-start counter and journal event must agree with it.
func TestWarmStartCountedWhenApplied(t *testing.T) {
	fx := newFixture(t, 0, Config{})
	ctx := context.Background()
	plan := func(cap int) *Response {
		t.Helper()
		resp, err := fx.srv.Plan(ctx, "t1", fx.req(cap), fx.inv, solverOpt())
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	plan(8) // four two-node USIDs a day
	before := metricWarmStarts.Value()
	// Capacity 6 holds three: the cached plan is offered and refused.
	if resp := plan(6); resp.Warm || resp.CacheHit {
		t.Fatalf("tightened re-plan: warm=%t hit=%t, want a cold solve", resp.Warm, resp.CacheHit)
	}
	if got := metricWarmStarts.Value(); got != before {
		t.Errorf("refused seed moved cornet_plan_warm_starts_total by %v", got-before)
	}
	// Capacity 7 still holds three: the capacity-6 plan seeds it.
	if resp := plan(7); !resp.Warm {
		t.Fatal("loosened re-plan did not warm-start")
	}
	if got := metricWarmStarts.Value(); got != before+1 {
		t.Errorf("applied seed moved cornet_plan_warm_starts_total by %v, want 1", got-before)
	}
}

// TestWarmEqualsCold walks a seeded script of small intent edits — the
// global capacity, the window's length, one frozen element, the order of
// the constraints — through one server, so answers come back cold,
// warm-seeded, from the plan cache behind a new request key (L2) and from
// a remembered one (L1). Every answer must pass the independent schedule
// check, and every warm answer must cost what a fresh server's cold solve
// of the same request costs.
func TestWarmEqualsCold(t *testing.T) {
	net, err := netgen.Cellular(netgen.CellularConfig{
		Seed: 1, Markets: 2, TACsPerMarket: 2, USIDsPerTAC: 3,
		GNodeBFraction: 1, EMSCount: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	inv := net.Inv.Subset(append(net.Inv.ByAttr("nf_type", "eNodeB"), net.Inv.ByAttr("nf_type", "gNodeB")...))
	ids := inv.IDs()
	f := core.New(map[string]catalog.ImplKind{"vCE": catalog.ImplScript})
	opt := core.PlanOptions{Topology: net.Topo, Policy: engine.ForceSolver, Parallelism: 1}
	newServer := func() *Server {
		srv := New(f, Config{})
		t.Cleanup(srv.Stop)
		return srv
	}
	type edit struct {
		cap, days int
		frozen    string
		swapped   bool
	}
	request := func(e edit) *intent.Request {
		global := fmt.Sprintf(`{"name": "concurrency", "base_attribute": "common_id", "default_capacity": %d}`, e.cap)
		perEMS := `{"name": "concurrency", "base_attribute": "common_id", "aggregate_attribute": "ems", "default_capacity": 100}`
		if e.swapped {
			global, perEMS = perEMS, global
		}
		frozen := ""
		if e.frozen != "" {
			frozen = fmt.Sprintf(`"frozen_elements": [{"common_id": %q}],`, e.frozen)
		}
		req, err := intent.Parse([]byte(fmt.Sprintf(`{
		  "scheduling_window": {"start": "2022-03-01 00:00:00", "end": "2022-03-%02d 00:00:00",
		    "granularity": {"metric": "day", "value": 1}},
		  "schedulable_attribute": "common_id", %s
		  "constraints": [%s, %s,
		    {"name": "consistency", "attribute": "usid"},
		    {"name": "localize", "attribute": "market"}]
		}`, 1+e.days, frozen, global, perEMS)))
		if err != nil {
			t.Fatal(err)
		}
		return req
	}
	objective := func(resp *Response) int64 {
		for _, st := range resp.Result.Stats {
			if st.Winner {
				return st.Objective
			}
		}
		t.Fatal("no winning backend in stats")
		return 0
	}

	srv := newServer()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(22))
	cur := edit{cap: 6, days: 6}
	seen := map[string]int{}
	for step := 0; step < 60; step++ {
		switch rng.Intn(5) {
		case 0:
			cur.cap = 4 + rng.Intn(6)
		case 1:
			cur.days = 5 + rng.Intn(3)
		case 2:
			cur.frozen = []string{"", ids[rng.Intn(len(ids))]}[rng.Intn(2)]
		case 3:
			cur.swapped = !cur.swapped
		} // case 4: the same request again
		req := request(cur)
		resp, l1Hit, _ := tracedPlan(t, srv, req, inv, opt)
		kind := "cold"
		switch {
		case resp.CacheHit && l1Hit:
			kind = "l1"
		case resp.CacheHit:
			kind = "l2"
		case resp.Warm:
			kind = "warm"
		}
		seen[kind]++
		problems, err := f.CheckScheduleContext(ctx, req, inv, resp.Result.Assignment, opt)
		if err != nil || len(problems) > 0 {
			t.Fatalf("step %d (%s, %+v): schedule check: %v %v", step, kind, cur, err, problems)
		}
		if kind == "warm" {
			cold, err := newServer().Plan(ctx, "t", req, inv, opt)
			if err != nil {
				t.Fatal(err)
			}
			if cold.Warm || cold.CacheHit || objective(cold) != objective(resp) {
				t.Fatalf("step %d (%+v): warm objective %d, fresh server's %d (warm=%t hit=%t)",
					step, cur, objective(resp), objective(cold), cold.Warm, cold.CacheHit)
			}
		}
	}
	for _, kind := range []string{"cold", "warm", "l2", "l1"} {
		if seen[kind] == 0 {
			t.Errorf("the script never produced a %s answer: %v", kind, seen)
		}
	}
}
