package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"cornet/internal/core"
	"cornet/internal/inventory"
	"cornet/internal/netgen"
	"cornet/internal/plan/intent"
)

// The fixed shape of the traffic: how many closed-loop clients drive the
// child, how many instances its testbed holds per NF type, and how many
// distinct intents plan_hit keeps warm.
const (
	clients    = 2
	vnfs       = 24
	hitSetSize = 8
	planItems  = 201 // edge elements of netgen.DefaultCellular(200, 1)
	teamSize   = vnfs / clients
)

// request is one generated HTTP request. id is sent as X-Change-ID and
// names the request's spans.
type request struct {
	path string
	body []byte
	id   string
}

// workload is one traffic mix: how the child is started and prepared, the
// request stream each client sends, and the check every answer must pass.
type workload struct {
	name string
	why  string
	// flags are the cornetd flags beyond -addr.
	flags []string
	// route is the mux pattern the requests land on, as /metrics labels it.
	route string
	// traceable reports whether the endpoint honours ?trace=1.
	traceable bool
	// paired workloads send one request per client per round and wait for
	// both: the two composed submissions must share a generation.
	paired bool
	// warmup is how many requests per client set-up sends and discards.
	warmup int
	// api is the deployment the exec workloads execute; prepare sets it.
	api string
	// prepare runs once per child after /healthz: deploy, pre-warm.
	prepare func(ctx context.Context, h *httpClient) error
	// stream returns client c's deterministic request sequence.
	stream func(c int) func() request
	// check validates one answer; traced says ?trace=1 was asked for.
	check func(req request, status int, body []byte, traced bool) error
	// post validates what can only be judged after the window closed and
	// returns how many answers failed it.
	post func(ctx context.Context) (failed int, err error)
}

// workloadNames lists the workloads in run order.
var workloadNames = []string{"plan_hit", "plan_miss", "exec_plain", "exec_composed"}

// newWorkload builds the named workload; every generated value derives from
// seed. cornetd keeps its own -seed 1 and sees only the requests.
func newWorkload(name string, seed int64) (*workload, error) {
	switch name {
	case "plan_hit":
		return planHit(seed), nil
	case "plan_miss":
		return planMiss(seed), nil
	case "exec_plain":
		return execPlain(seed), nil
	case "exec_composed":
		return execComposed(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// planDoc is the Listing-1 composition every plan request carries: global
// concurrency 30, per-EMS concurrency emsCap, consistency on USID,
// uniformity on timezone, localize on market, ten daily slots. emsCap is
// slack (>= 1000 against at most 30 per slot), so it changes the model's
// fingerprint and never the search problem.
func planDoc(emsCap int64) []byte {
	return []byte(fmt.Sprintf(`{
  "scheduling_window": {"start": "2022-03-01 00:00:00", "end": "2022-03-11 00:00:00",
    "granularity": {"metric": "day", "value": 1}},
  "schedulable_attribute": "common_id",
  "constraints": [
    {"name": "concurrency", "base_attribute": "common_id", "default_capacity": 30},
    {"name": "concurrency", "base_attribute": "common_id", "aggregate_attribute": "ems", "default_capacity": %d},
    {"name": "consistency", "attribute": "usid"},
    {"name": "uniformity", "attribute": "timezone", "value": 0},
    {"name": "localize", "attribute": "market"}
  ]
}`, emsCap))
}

// planAnswer is the part of a /api/plan answer the checks read.
type planAnswer struct {
	Cache struct {
		Hit bool `json:"hit"`
	} `json:"cache"`
	Stats []struct {
		Objective int64 `json:"objective"`
		Winner    bool  `json:"winner"`
	} `json:"stats"`
	Assignment map[string]int  `json:"assignment"`
	Trace      json.RawMessage `json:"trace"`
}

func (a *planAnswer) objective() (int64, error) {
	for _, st := range a.Stats {
		if st.Winner {
			return st.Objective, nil
		}
	}
	return 0, errors.New("no winner in stats[]")
}

// checkPlan is the part of the check plan_hit and plan_miss share.
func checkPlan(status int, body []byte, traced, wantHit bool) (*planAnswer, error) {
	if status != 200 {
		return nil, fmt.Errorf("status %d: %.200s", status, body)
	}
	var a planAnswer
	if err := json.Unmarshal(body, &a); err != nil {
		return nil, err
	}
	if a.Cache.Hit != wantHit {
		return nil, fmt.Errorf("cache.hit = %t, want %t", a.Cache.Hit, wantHit)
	}
	if len(a.Assignment) != planItems {
		return nil, fmt.Errorf("%d assignments, want %d", len(a.Assignment), planItems)
	}
	if traced && len(a.Trace) == 0 {
		return nil, errors.New("?trace=1 answer carries no trace")
	}
	return &a, nil
}

// prewarm plans one intent cold and returns the answer's objective.
func prewarm(ctx context.Context, h *httpClient, route string, k int, doc []byte) (int64, error) {
	status, body, err := h.post(ctx, request{path: route, body: doc, id: fmt.Sprintf("warm-%d", k)}, false)
	if err != nil {
		return 0, err
	}
	a, err := checkPlan(status, body, false, false)
	if err != nil {
		return 0, fmt.Errorf("pre-warm %d: %w", k, err)
	}
	return a.objective()
}

// hitDoc is the k-th intent of plan_hit's working set.
func hitDoc(k int) []byte { return planDoc(1000 + int64(k)) }

func planHit(seed int64) *workload {
	docs := make([][]byte, hitSetSize)
	for k := range docs {
		docs[k] = hitDoc(k)
	}
	var want int64 // the pre-warm answers' objective
	w := &workload{
		name: "plan_hit", route: "/api/plan", traceable: true, warmup: 100,
		why: "8 pre-warmed intents drawn at random: decode, inventory subset, translate, fingerprint, cache get, encode; the solver idles",
	}
	w.prepare = func(ctx context.Context, h *httpClient) error {
		// Each pre-warm is a full solve; the two clients share them.
		objs := make([]int64, hitSetSize)
		errs := make([]error, clients)
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := c; k < hitSetSize && errs[c] == nil; k += clients {
					objs[k], errs[c] = prewarm(ctx, h, w.route, k, docs[k])
				}
			}()
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return err
		}
		want = objs[0]
		for k, obj := range objs {
			if obj != want {
				return fmt.Errorf("pre-warm %d: objective %d, want %d: the slack capacity bound the search", k, obj, want)
			}
		}
		return nil
	}
	w.stream = func(c int) func() request {
		rng := rand.New(rand.NewSource(seed*clients + int64(c)))
		i := 0
		return func() request {
			i++
			return request{path: w.route, body: docs[rng.Intn(hitSetSize)], id: fmt.Sprintf("hit-%d-%d-%d", seed, c, i)}
		}
	}
	w.check = func(_ request, status int, body []byte, traced bool) error {
		a, err := checkPlan(status, body, traced, true)
		if err != nil {
			return err
		}
		obj, err := a.objective()
		if err != nil {
			return err
		}
		if obj != want {
			return fmt.Errorf("objective %d, want the pre-warm answer's %d", obj, want)
		}
		return nil
	}
	return w
}

// missCapacity is the never-repeated slack EMS capacity of client c's i-th
// plan_miss request under seed.
func missCapacity(seed int64, c, i int) int64 {
	return 10000 + seed*1_000_000 + int64(c)*100_000 + int64(i)
}

func planMiss(seed int64) *workload {
	// Every 16th answer is kept and re-validated in-process once the
	// window has closed, so the check costs the measured run nothing.
	type keptAnswer struct {
		doc        []byte
		assignment map[string]int
	}
	var (
		mu   sync.Mutex
		seen int
		kept []keptAnswer
	)
	w := &workload{
		name: "plan_miss", route: "/api/plan", traceable: true, warmup: 2,
		why: "every request a novel fingerprint of one search problem: translate, fingerprint, admission, budget-bound solve, cache put",
	}
	w.stream = func(c int) func() request {
		i := 0
		return func() request {
			i++
			return request{path: w.route, body: planDoc(missCapacity(seed, c, i)), id: fmt.Sprintf("miss-%d-%d-%d", seed, c, i)}
		}
	}
	w.check = func(req request, status int, body []byte, traced bool) error {
		a, err := checkPlan(status, body, traced, false)
		if err != nil {
			return err
		}
		mu.Lock()
		if seen%16 == 0 {
			kept = append(kept, keptAnswer{req.body, a.Assignment})
		}
		seen++
		mu.Unlock()
		return nil
	}
	w.post = func(ctx context.Context) (int, error) {
		net, err := cornetdNetwork()
		if err != nil {
			return 0, err
		}
		f := core.New(nil)
		sub := edgeSubset(net)
		failed := 0
		for _, k := range kept {
			req, err := intent.Parse(k.doc)
			if err != nil {
				return 0, err
			}
			problems, err := f.CheckScheduleContext(ctx, req, sub, k.assignment, core.PlanOptions{Topology: net.Topo})
			if err != nil {
				return 0, err
			}
			if len(problems) > 0 {
				failed++
			}
		}
		return failed, nil
	}
	return w
}

// cornetdNetwork generates the RAN cornetd plans over: it hard-codes
// DefaultCellular(200, seed) and the benchmark never changes its -seed 1.
func cornetdNetwork() (*netgen.Network, error) {
	return netgen.Cellular(netgen.DefaultCellular(200, 1))
}

// edgeSubset is the inventory handlePlan hands the serving layer.
func edgeSubset(net *netgen.Network) *inventory.Inventory {
	return net.Inv.Subset(net.Inv.Filter(isEdge))
}

func isEdge(e *inventory.Element) bool {
	layer, _ := e.Attr(inventory.AttrLayer)
	return layer == "edge"
}

// deploy posts the software-upgrade workflow for vCE and returns the
// deployment API executions name.
func deploy(ctx context.Context, h *httpClient) (string, error) {
	status, body, err := h.post(ctx, request{path: "/api/wf/deploy",
		body: []byte(`{"workflow":"software-upgrade","nf_type":"vCE"}`), id: "deploy"}, false)
	if err != nil {
		return "", err
	}
	var dep struct {
		API string `json:"api"`
	}
	if status != 200 || json.Unmarshal(body, &dep) != nil || dep.API == "" {
		return "", fmt.Errorf("deploy: status %d: %.200s", status, body)
	}
	return dep.API, nil
}

// vceID names the i-th vCE of the child's testbed (testbed.PopulateVNFs).
func vceID(i int) string { return fmt.Sprintf("vce-%03d", i) }

// version alternates v2/v3 so that every upgrade changes the instance.
func version(pass int) string {
	if pass%2 == 0 {
		return "v2"
	}
	return "v3"
}

func execPlain(seed int64) *workload {
	// A seeded permutation splits the 24 vCEs between the two clients, so
	// no instance is ever upgraded by both at once.
	perm := rand.New(rand.NewSource(seed)).Perm(vnfs)
	w := &workload{
		name: "exec_plain", route: "/api/wf/execute", traceable: true, warmup: 200,
		flags: []string{"-vnfs", fmt.Sprint(vnfs)},
		why:   "one workflow on one instance: HTTP middleware, orchestrator, three testbed blocks, event/metric/log emission; no planning at all",
	}
	w.prepare = func(ctx context.Context, h *httpClient) (err error) {
		w.api, err = deploy(ctx, h)
		return err
	}
	w.stream = func(c int) func() request {
		mine := perm[c*teamSize : (c+1)*teamSize]
		i := 0
		return func() request {
			inst, pass := vceID(mine[i%teamSize]), i/teamSize
			i++
			body, _ := json.Marshal(map[string]any{"api": w.api,
				"inputs": map[string]string{"instance": inst, "sw_version": version(pass)}})
			return request{path: w.route, body: body, id: fmt.Sprintf("exec-%d-%d-%d", seed, c, i)}
		}
	}
	w.check = func(_ request, status int, body []byte, traced bool) error {
		if status != 200 {
			return fmt.Errorf("status %d: %.200s", status, body)
		}
		var a struct {
			Status string            `json:"status"`
			Logs   []json.RawMessage `json:"logs"`
			Trace  json.RawMessage   `json:"trace"`
		}
		if err := json.Unmarshal(body, &a); err != nil {
			return err
		}
		if a.Status != "success" || len(a.Logs) != 3 {
			return fmt.Errorf("status %q with %d block logs, want success with 3", a.Status, len(a.Logs))
		}
		if traced && len(a.Trace) == 0 {
			return errors.New("?trace=1 answer carries no trace")
		}
		return nil
	}
	return w
}

func execComposed(seed int64) *workload {
	// Client 0 is team east (even vCEs), client 1 team west (odd ones) —
	// cornetd's own market assignment. The scopes list the vCEs by id:
	// "markets" would pull in the other five NF types of the testbed.
	scopes := make([][]string, clients)
	for i := 0; i < vnfs; i++ {
		scopes[i%clients] = append(scopes[i%clients], vceID(i))
	}
	w := &workload{
		name: "exec_composed", route: "/api/wf/execute", paired: true, warmup: 2,
		flags: []string{"-vnfs", fmt.Sprint(vnfs), "-compose-slots", "6", "-compose-capacity", "4"},
		why:   "two teams' scoped upgrades per round: delta build, validate, window wait, merge, union plan (a hit), dispatcher of 24 changes",
	}
	w.prepare = func(ctx context.Context, h *httpClient) (err error) {
		w.api, err = deploy(ctx, h)
		return err
	}
	w.stream = func(c int) func() request {
		round := int(seed % 2) // the seed picks which version goes first
		return func() request {
			round++
			body, _ := json.Marshal(map[string]any{"api": w.api,
				"inputs":  map[string]string{"sw_version": version(round)},
				"compose": map[string]any{"scope": scopes[c]}})
			return request{path: w.route, body: body, id: fmt.Sprintf("comp-%d-%d-%d", seed, c, round)}
		}
	}
	w.check = func(_ request, status int, body []byte, _ bool) error {
		if status != 200 {
			return fmt.Errorf("status %d: %.200s", status, body)
		}
		var a struct {
			Status     string   `json:"status"`
			Members    []string `json:"members"`
			Executions []struct {
				Status string `json:"status"`
			} `json:"executions"`
			Unscheduled []string `json:"unscheduled"`
			Unowned     []string `json:"unowned"`
		}
		if err := json.Unmarshal(body, &a); err != nil {
			return err
		}
		if a.Status != "composed" || len(a.Members) != clients || len(a.Unscheduled)+len(a.Unowned) != 0 {
			return fmt.Errorf("status %q, %d members, %d unscheduled, %d unowned", a.Status, len(a.Members), len(a.Unscheduled), len(a.Unowned))
		}
		if len(a.Executions) != teamSize {
			return fmt.Errorf("%d executions, want %d", len(a.Executions), teamSize)
		}
		for _, e := range a.Executions {
			if e.Status != "success" {
				return fmt.Errorf("execution status %q", e.Status)
			}
		}
		return nil
	}
	return w
}
