package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"cornet/internal/catalog"
	"cornet/internal/core"
	"cornet/internal/inventory"
	"cornet/internal/obs"
	"cornet/internal/plan/cache"
	"cornet/internal/plan/engine"
	"cornet/internal/plan/intent"
	"cornet/internal/plan/model"
	"cornet/internal/plan/solver"
	"cornet/internal/topology"
)

// The tests of the request-key L1 in front of the plan cache. What they
// must establish is that the L1 is invisible: a server that has it answers
// every request with the key, the hit flag and the plan a server without
// it would — only without translating and fingerprinting again.

// tracedPlan plans under a trace and reports, beside the response, whether
// the L1 and the plan cache answered the first lookup and whether the
// request was translated.
func tracedPlan(t *testing.T, srv *Server, req *intent.Request, inv *inventory.Inventory, opt core.PlanOptions) (resp *Response, l1Hit, translated bool) {
	t.Helper()
	ctx, root := obs.StartTrace(context.Background(), "test")
	resp, err := srv.Plan(ctx, "t", req, inv, opt)
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	tree := root.Export()
	lookup := tree.Find("plan.lookup")
	if lookup == nil {
		t.Fatal("no plan.lookup span")
	}
	l1Hit, _ = lookup.Attrs["l1_hit"].(bool)
	if cacheHit, _ := lookup.Attrs["cache_hit"].(bool); cacheHit != (l1Hit && resp.CacheHit) {
		t.Fatalf("plan.lookup cache_hit = %t with l1_hit = %t and CacheHit = %t", cacheHit, l1Hit, resp.CacheHit)
	}
	return resp, l1Hit, tree.Find("plan.translate") != nil
}

// (a) An identical request before and after a mutation of the planned
// inventory must be rebuilt; a SetAttr that changes nothing must not cost
// the memo.
func TestL1InvalidatedByInventoryMutation(t *testing.T) {
	fx := newFixture(t, 0, Config{})
	plan := func() (*Response, bool, bool) {
		return tracedPlan(t, fx.srv, fx.req(6), fx.inv, solverOpt())
	}
	cold, l1Hit, translated := plan()
	if cold.CacheHit || l1Hit || !translated {
		t.Fatalf("cold: hit=%t l1=%t translated=%t", cold.CacheHit, l1Hit, translated)
	}
	if hit, l1Hit, translated := plan(); !hit.CacheHit || !l1Hit || translated || hit.Key != cold.Key || hit.Result != cold.Result {
		t.Fatalf("repeat: hit=%t l1=%t translated=%t key=%q (cold %q)", hit.CacheHit, l1Hit, translated, hit.Key, cold.Key)
	}

	id := fx.inv.IDs()[0]
	e, _ := fx.inv.Get(id)
	usid, _ := e.Attr(inventory.AttrUSID)
	if err := fx.inv.SetAttr(id, inventory.AttrUSID, usid); err != nil {
		t.Fatal(err)
	}
	if hit, l1Hit, translated := plan(); !hit.CacheHit || !l1Hit || translated {
		t.Fatalf("after a no-op SetAttr: hit=%t l1=%t translated=%t", hit.CacheHit, l1Hit, translated)
	}

	// Moving the element to a site of its own changes the consistency
	// groups, so the model: the old plan must not be served.
	if err := fx.inv.SetAttr(id, inventory.AttrUSID, "usid-moved"); err != nil {
		t.Fatal(err)
	}
	moved, l1Hit, translated := plan()
	if moved.CacheHit || l1Hit || !translated || moved.Key == cold.Key {
		t.Fatalf("after SetAttr: hit=%t l1=%t translated=%t key changed=%t", moved.CacheHit, l1Hit, translated, moved.Key != cold.Key)
	}
	if got := fx.calls.Load(); got != 2 {
		t.Fatalf("solves = %d, want 2", got)
	}

	// A mutation the intent does not read still rebuilds — the stamp does
	// not know what matters — and lands on the same plan by fingerprint.
	if err := fx.inv.SetAttr(id, inventory.AttrVendor, "someone-else"); err != nil {
		t.Fatal(err)
	}
	if same, l1Hit, translated := plan(); !same.CacheHit || l1Hit || !translated || same.Key != moved.Key {
		t.Fatalf("after an unread SetAttr: hit=%t l1=%t translated=%t key=%q (want %q)", same.CacheHit, l1Hit, translated, same.Key, moved.Key)
	}
}

// (b) An L1 entry outlives the plan it names — the L1 has no TTL, and the
// plan cache evicts on its own. The request then re-solves, and the plan it
// gets is the one a cold request gets.
func TestL1HitBehindExpiredOrEvictedPlan(t *testing.T) {
	lose := map[string]func(fx *fixture){
		"expired": func(fx *fixture) {
			later := time.Now().Add(2 * time.Minute)
			fx.srv.cache.SetClock(func() time.Time { return later })
		},
		"evicted": func(fx *fixture) { fx.srv.cache = cache.New(512, time.Minute) },
	}
	for name, lose := range lose {
		t.Run(name, func(t *testing.T) {
			fx := newFixture(t, 0, Config{CacheTTL: time.Minute})
			plan := func() (*Response, bool, bool) {
				return tracedPlan(t, fx.srv, fx.req(6), fx.inv, solverOpt())
			}
			cold, _, _ := plan()
			lose(fx)
			misses := fx.srv.CacheStats().Misses
			again, l1Hit, translated := plan()
			if !l1Hit || again.CacheHit || !translated {
				t.Fatalf("l1=%t hit=%t translated=%t, want an L1 hit that re-solves", l1Hit, again.CacheHit, translated)
			}
			if again.Key != cold.Key || !reflect.DeepEqual(again.Result.Assignment, cold.Result.Assignment) {
				t.Fatalf("re-solve answered key %q, want %q with the same assignment", again.Key, cold.Key)
			}
			if got := fx.calls.Load(); got != 2 {
				t.Fatalf("solves = %d, want 2", got)
			}
			if got := fx.srv.CacheStats().Misses - misses; got != 1 {
				t.Fatalf("the lost key was looked up %d times, want once", got)
			}
			if hit, l1Hit, translated := plan(); !hit.CacheHit || !l1Hit || translated || hit.Result != again.Result {
				t.Fatalf("after the re-solve: hit=%t l1=%t translated=%t", hit.CacheHit, l1Hit, translated)
			}
		})
	}
}

// A request with no canonical JSON has no request key: it is served by
// fingerprint every time, never from the L1.
func TestRequestWithoutCanonicalJSONSkipsL1(t *testing.T) {
	fx := newFixture(t, 0, Config{})
	req := fx.req(6)
	req.FrozenElements = []intent.FrozenElement{{Attribute: "start", Value: "x"}}
	if key := fx.srv.requestKey(req, fx.inv, solverOpt()); key != "" {
		t.Fatalf("request key %q for a request json.Marshal refuses", key)
	}
	if cold, l1Hit, translated := tracedPlan(t, fx.srv, req, fx.inv, solverOpt()); cold.CacheHit || l1Hit || !translated {
		t.Fatalf("cold: hit=%t l1=%t translated=%t", cold.CacheHit, l1Hit, translated)
	}
	if hit, l1Hit, translated := tracedPlan(t, fx.srv, req, fx.inv, solverOpt()); !hit.CacheHit || l1Hit || !translated {
		t.Fatalf("repeat: hit=%t l1=%t translated=%t, want a fingerprint hit", hit.CacheHit, l1Hit, translated)
	}
}

// fullDoc sets every field of intent.Request, so the field walk below has
// a leaf to edit everywhere.
const fullDoc = `{
  "scheduling_window": {"start": "2020-07-01 00:00:00", "end": "2020-07-15 00:00:00",
    "granularity": {"metric": "day", "value": 1}},
  "maintenance_window": {"start": "0:00", "end": "6:00", "granularity": "hour", "timezone": "local"},
  "excluded_periods": [{"start": "2020-07-04 00:00:00", "end": "2020-07-05 00:00:00"}],
  "schedulable_attribute": "common_id",
  "conflict_attribute": "usid",
  "inventory": "ran",
  "frozen_elements": [{"market": "m0", "start": "2020-07-02 00:00:00", "end": "2020-07-03 00:00:00"}],
  "conflict_table": {"usid-1": [{"start": "2020-07-06 00:00:00", "end": "2020-07-07 00:00:00", "tickets": ["CHG-1"]}]},
  "constraints": [
    {"name": "conflict_handling", "value": "minimize-conflicts"},
    {"name": "concurrency", "base_attribute": "common_id", "aggregate_attribute": "ems", "operator": "<=",
      "granularity": {"metric": "day", "value": 1}, "default_capacity": 4},
    {"name": "consistency", "attribute": "usid"}
  ],
  "change_duration": 1
}`

// editLeaf changes the n-th scalar under v (depth first, map keys sorted,
// a slice's or map's length counting as one more scalar after its
// elements) and reports whether there was one.
func editLeaf(v reflect.Value, n *int) bool {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if editLeaf(v.Field(i), n) {
				return true
			}
		}
		return false
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			if editLeaf(v.Index(i), n) {
				return true
			}
		}
		if *n--; *n < 0 {
			v.Set(v.Slice(0, v.Len()-1))
			return true
		}
		return false
	case reflect.Map:
		keys := v.MapKeys()
		for _, k := range keys {
			elem := reflect.New(v.Type().Elem()).Elem()
			elem.Set(v.MapIndex(k))
			if editLeaf(elem, n) {
				v.SetMapIndex(k, elem)
				return true
			}
		}
		if *n--; *n < 0 { // rename a key
			v.SetMapIndex(reflect.ValueOf(keys[0].String()+"~"), v.MapIndex(keys[0]))
			v.SetMapIndex(keys[0], reflect.Value{})
			return true
		}
		return false
	}
	if *n--; *n >= 0 {
		return false
	}
	switch v.Kind() {
	case reflect.String:
		v.SetString(v.String() + "~")
	case reflect.Int:
		v.SetInt(v.Int() + 1)
	case reflect.Interface:
		v.Set(reflect.ValueOf(fmt.Sprint(v.Interface(), "~")))
	default:
		panic("editLeaf: no edit for a " + v.Kind().String())
	}
	return true
}

// (c, second half) Two Requests that differ in any field never share a
// key: every single-field edit of a parsed Request — found by reflection,
// so a field added later is walked too — moves the key to one no other
// edit produced.
func TestRequestKeySeesEveryRequestField(t *testing.T) {
	fx := newFixture(t, 0, Config{})
	parse := func() *intent.Request {
		req, err := intent.Parse([]byte(fullDoc))
		if err != nil {
			t.Fatal(err)
		}
		return req
	}
	base := reflect.ValueOf(parse()).Elem()
	for i := 0; i < base.NumField(); i++ {
		if base.Field(i).IsZero() {
			t.Fatalf("fullDoc leaves Request.%s unset: the walk cannot edit it", base.Type().Field(i).Name)
		}
	}
	seen := map[string]int{fx.srv.requestKey(parse(), fx.inv, solverOpt()): -1}
	edits := 0
	for ; ; edits++ {
		req, n := parse(), edits
		if !editLeaf(reflect.ValueOf(req).Elem(), &n) {
			break
		}
		key := fx.srv.requestKey(req, fx.inv, solverOpt())
		if key == "" {
			t.Fatalf("edit %d: no request key", edits)
		}
		if prev, dup := seen[key]; dup {
			doc, _ := json.Marshal(req)
			t.Fatalf("edit %d shares its key with edit %d (-1 = unedited): %s", edits, prev, doc)
		}
		seen[key] = edits
	}
	if edits < 40 {
		t.Fatalf("the walk made %d edits; fullDoc has more than 40 scalars", edits)
	}
}

// (d) Every core.PlanOptions field is either in the request key or read
// by nothing BuildPlanRequest does. A new field fails this test until it
// is listed here — and, if the build reads it, written into requestKey.
func TestRequestKeyCoversPlanOptions(t *testing.T) {
	type field struct {
		inKey bool
		edit  func(o *core.PlanOptions)
	}
	fields := map[string]field{
		"Topology":    {true, func(o *core.PlanOptions) { o.Topology = topology.New() }},
		"RequireAll":  {true, func(o *core.PlanOptions) { o.RequireAll = true }},
		"Policy":      {true, func(o *core.PlanOptions) { o.Policy = engine.ForceHeuristic }},
		"Seed":        {true, func(o *core.PlanOptions) { o.Seed = 7 }},
		"Parallelism": {true, func(o *core.PlanOptions) { o.Parallelism = 7 }},
		"RenderModel": {false, func(o *core.PlanOptions) { o.RenderModel = true }}, // RunPlan only
		"Warm":        {false, func(o *core.PlanOptions) { o.Warm = map[string]int{"x": 1} }},
	}
	fx := newFixture(t, 0, Config{})
	req := fx.req(6)
	typ := reflect.TypeOf(core.PlanOptions{})
	if typ.NumField() != len(fields) {
		t.Errorf("core.PlanOptions has %d fields, %d are classified", typ.NumField(), len(fields))
	}
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		f, ok := fields[name]
		if !ok {
			t.Errorf("core.PlanOptions.%s is not classified: does BuildPlanRequest read it?", name)
			continue
		}
		var base, edited core.PlanOptions
		f.edit(&edited)
		if reflect.DeepEqual(base, edited) {
			t.Errorf("%s: the edit changes nothing", name)
		}
		moved := fx.srv.requestKey(req, fx.inv, base) != fx.srv.requestKey(req, fx.inv, edited)
		if moved != f.inKey {
			t.Errorf("%s: key moved = %t, want %t", name, moved, f.inKey)
		}
	}
	// The topology is in the key by state, not by address.
	opt := core.PlanOptions{Topology: topology.New()}
	before := fx.srv.requestKey(req, fx.inv, opt)
	_ = opt.Topology.AddEdge("n", "m", topology.Link)
	if fx.srv.requestKey(req, fx.inv, opt) == before {
		t.Error("a mutated topology kept its request key")
	}
}

// instantSolve answers every model with everything in slot 0: the tests
// that use it exercise the serving path, not the search.
func instantSolve(_ context.Context, m *model.Model, _ solver.Options) (model.Schedule, error) {
	return model.Schedule{Slots: make([]int, len(m.Items)), Optimal: true}, nil
}

// fleet builds an n-element inventory with the attributes benchDoc reads.
func fleet(n int) *inventory.Inventory {
	inv := inventory.New()
	for i := 0; i < n; i++ {
		inv.MustAdd(&inventory.Element{ID: fmt.Sprintf("e%04d", i), Attributes: map[string]string{
			inventory.AttrUSID:     fmt.Sprint("u", i/2),
			inventory.AttrEMS:      fmt.Sprint("ems", i%4),
			inventory.AttrTimezone: "-5",
			inventory.AttrMarket:   fmt.Sprint("m", i%3),
		}})
	}
	return inv
}

// benchDoc is the plan document the end-to-end benchmark posts.
const benchDoc = `{
  "scheduling_window": {"start": "2022-03-01 00:00:00", "end": "2022-03-11 00:00:00",
    "granularity": {"metric": "day", "value": 1}},
  "schedulable_attribute": "common_id",
  "constraints": [
    {"name": "concurrency", "base_attribute": "common_id", "default_capacity": 30},
    {"name": "concurrency", "base_attribute": "common_id", "aggregate_attribute": "ems", "default_capacity": 1000},
    {"name": "consistency", "attribute": "usid"},
    {"name": "uniformity", "attribute": "timezone", "value": 0},
    {"name": "localize", "attribute": "market"}
  ]
}`

// (e) The L1 hit's allocation budget, and that it does not grow with the
// fleet: before the L1 a hit on 201 elements cost about 2,700 allocations,
// linear in the fleet.
func TestL1HitAllocsFlatInFleetSize(t *testing.T) {
	f := core.New(map[string]catalog.ImplKind{"vCE": catalog.ImplScript})
	f.SolveModel = instantSolve
	srv := New(f, Config{})
	t.Cleanup(srv.Stop)
	req, err := intent.Parse([]byte(benchDoc))
	if err != nil {
		t.Fatal(err)
	}
	ctx := obs.WithChangeID(context.Background(), "chg-allocs")
	opt := core.PlanOptions{Topology: topology.New()}
	allocs := func(n int) float64 {
		inv := fleet(n)
		if _, err := srv.Plan(ctx, "t", req, inv, opt); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(200, func() {
			resp, err := srv.Plan(ctx, "t", req, inv, opt)
			if err != nil || !resp.CacheHit || len(resp.Result.Assignment) != n {
				t.Fatalf("n=%d: err=%v resp=%+v", n, err, resp)
			}
		})
	}
	const budget = 64
	at201 := allocs(201)
	if at201 > budget {
		t.Errorf("L1 hit at 201 elements: %.0f allocs, budget %d", at201, budget)
	}
	for _, n := range []int{51, 801} {
		if got := allocs(n); got < at201-2 || got > at201+2 {
			t.Errorf("L1 hit at %d elements: %.0f allocs, %.0f at 201 — not flat in fleet size", n, got, at201)
		}
	}
}

// (c, first half) Differential: over a random sequence of intents ×
// inventories × policies with repeats and inventory mutations in between,
// a server with the L1 gives every request the key, the hit flag and the
// plan that a server without one gives — the behaviour before the L1
// existed.
func TestL1IsInvisible(t *testing.T) {
	newServer := func() *Server {
		f := core.New(map[string]catalog.ImplKind{"vCE": catalog.ImplScript})
		f.SolveModel = instantSolve
		f.ScaleThreshold = 30 // the larger fleets plan heuristically under Threshold
		srv := New(f, Config{})
		t.Cleanup(srv.Stop)
		return srv
	}
	withL1, withoutL1 := newServer(), newServer()
	withoutL1.l1 = cache.New(0, 0) // holds nothing: every request is built and fingerprinted

	rng := rand.New(rand.NewSource(12))
	fleets := []*inventory.Inventory{fleet(12), fleet(24), fleet(40)}
	var reqs []*intent.Request
	for _, capacity := range []int{3, 5} {
		for _, tail := range []string{``, `, {"name": "consistency", "attribute": "usid"}`, `, {"name": "localize", "attribute": "market"}`} {
			req, err := intent.Parse([]byte(fmt.Sprintf(`{
			  "scheduling_window": {"start": "2022-03-01 00:00:00", "end": "2022-03-15 00:00:00",
			    "granularity": {"metric": "day", "value": 1}},
			  "schedulable_attribute": "common_id",
			  "constraints": [{"name": "concurrency", "base_attribute": "common_id", "default_capacity": %d}%s]
			}`, capacity, tail)))
			if err != nil {
				t.Fatal(err)
			}
			reqs = append(reqs, req)
		}
	}
	topo := topology.New()
	opts := []core.PlanOptions{
		{Parallelism: 1, Seed: 1},
		{Parallelism: 1, Seed: 1, Policy: engine.ForceSolver},
		{Parallelism: 1, Seed: 1, Policy: engine.ForceSolver, RequireAll: true},
		{Parallelism: 1, Seed: 1, Policy: engine.ForceSolver, Topology: topo},
		{Parallelism: 1, Seed: 1, Policy: engine.ForceHeuristic},
	}
	ctx := context.Background()
	l1Hits := 0
	for step := 0; step < 400; step++ {
		if step%25 == 24 {
			inv := fleets[rng.Intn(len(fleets))]
			attr := []string{inventory.AttrUSID, inventory.AttrMarket, inventory.AttrVendor}[rng.Intn(3)]
			if err := inv.SetAttr(inv.IDs()[rng.Intn(inv.Len())], attr, fmt.Sprint("v", rng.Intn(3))); err != nil {
				t.Fatal(err)
			}
		}
		req, inv, opt := reqs[rng.Intn(len(reqs))], fleets[rng.Intn(len(fleets))], opts[rng.Intn(len(opts))]
		before := withL1.l1.Stats().Hits
		got, err := withL1.Plan(ctx, "t", req, inv, opt)
		if err != nil {
			t.Fatal(err)
		}
		l1Hits += int(withL1.l1.Stats().Hits - before)
		want, err := withoutL1.Plan(ctx, "t", req, inv, opt)
		if err != nil {
			t.Fatal(err)
		}
		if got.Key != want.Key || got.CacheHit != want.CacheHit || got.Result.Method != want.Result.Method ||
			!reflect.DeepEqual(got.Result.Assignment, want.Result.Assignment) ||
			!reflect.DeepEqual(got.Result.Leftovers, want.Result.Leftovers) {
			t.Fatalf("step %d: with the L1 key=%q hit=%t method=%s, without key=%q hit=%t method=%s (or the plans differ)",
				step, got.Key, got.CacheHit, got.Result.Method, want.Key, want.CacheHit, want.Result.Method)
		}
	}
	if l1Hits < 100 {
		t.Fatalf("only %d of 400 requests hit the L1: the sequence does not exercise it", l1Hits)
	}
	if a, b := withL1.CacheStats(), withoutL1.CacheStats(); a != b {
		t.Fatalf("plan cache counters diverged: with the L1 %+v, without %+v", a, b)
	}
}

// (f) Plan calls sharing one inventory race a writer mutating it: under
// -race this checks the stamp, the L1 and the shared inventory are safe to
// use this way, and afterwards the L1 serves the settled state.
func TestL1ConcurrentPlansAndMutations(t *testing.T) {
	f := core.New(map[string]catalog.ImplKind{"vCE": catalog.ImplScript})
	f.SolveModel = instantSolve
	srv := New(f, Config{})
	t.Cleanup(srv.Stop)
	req, err := intent.Parse([]byte(benchDoc))
	if err != nil {
		t.Fatal(err)
	}
	inv := fleet(30)
	ids := inv.IDs()
	ctx := context.Background()
	stop := make(chan struct{})
	var writer, planners sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := inv.SetAttr(ids[i%len(ids)], inventory.AttrUSID, fmt.Sprint("w", i%7)); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()
	for g := 0; g < 4; g++ {
		planners.Add(1)
		go func() {
			defer planners.Done()
			for i := 0; i < 150; i++ {
				resp, err := srv.Plan(ctx, "t", req, inv, core.PlanOptions{})
				if err != nil || len(resp.Result.Assignment) != len(ids) {
					t.Errorf("plan under mutation: err=%v", err)
					return
				}
			}
		}()
	}
	planners.Wait()
	close(stop)
	writer.Wait()

	settled, _, _ := tracedPlan(t, srv, req, inv, core.PlanOptions{})
	fresh := New(f, Config{})
	t.Cleanup(fresh.Stop)
	want, err := fresh.Plan(ctx, "t", req, inv, core.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if settled.Key != want.Key {
		t.Fatalf("after the writer stopped the server answers key %q, a fresh one %q", settled.Key, want.Key)
	}
	if hit, l1Hit, translated := tracedPlan(t, srv, req, inv, core.PlanOptions{}); !hit.CacheHit || !l1Hit || translated {
		t.Fatalf("settled repeat: hit=%t l1=%t translated=%t", hit.CacheHit, l1Hit, translated)
	}
}
