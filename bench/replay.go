package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"cornet/internal/catalog"
	"cornet/internal/compose"
	"cornet/internal/core"
	"cornet/internal/inventory"
	"cornet/internal/netgen"
	"cornet/internal/obs"
	"cornet/internal/obs/events"
	"cornet/internal/obs/slo"
	"cornet/internal/orchestrator"
	"cornet/internal/orchestrator/resilience"
	"cornet/internal/plan/cache"
	"cornet/internal/plan/engine"
	"cornet/internal/plan/intent"
	planserve "cornet/internal/plan/serve"
	"cornet/internal/plan/translate"
	"cornet/internal/testbed"
	"cornet/internal/workflow"
)

// The layer replay feeds the generated requests of all four workloads, one
// request at a time, through the exported calls cornetd's handlers make, in
// the handlers' order, on objects built the way cmd/cornetd/main.go builds
// them, and records a span around each call. cmd/cornetd is package main,
// so the pieces that live there (the compose intent, buildDelta,
// composeSolve, the answer encoding) are re-stated here; replay.vs_handler_pct
// says how far the re-statement drifts from the real handler.

// replayMin and replayMax bound the requests replayed per workload shape: at
// least enough for a median when one request is a 0.3 s solve, at most what a
// median needs when one is 20 µs.
const (
	replayMin = 5
	replayMax = 2000
)

// composeWindow is cornetd's default -compose-window.
const composeWindow = 150 * time.Millisecond

// counts are the per-layer counts and response-derived values the replay
// collects beside the spans.
type counts struct {
	buildAllocs, fingerprintAllocs float64

	hitStats, missStats cache.Stats
	sheds               int

	missRequests, warm int
	waitUS             []float64

	solves, timedOut                  int
	nodes, steals, wallMS, objectives []float64

	generations, members, conflicts int

	executes, invokes int // exec_plain shape only
	blocksFailed      int
	events            uint64 // journal events published by exec_plain executes
	dropped           int64
}

// timingInvoker wraps the testbed at the orchestrator's Invoker boundary.
type timingInvoker struct {
	next orchestrator.Invoker
	rec  *recorder
}

func (t timingInvoker) Invoke(ctx context.Context, api string, args map[string]string) (map[string]string, error) {
	parent := spanFrom(ctx)
	id := t.rec.start("testbed.invoke", parent.req, parent.id)
	out, err := t.next.Invoke(ctx, api, args)
	t.rec.end(id)
	return out, err
}

// fixture is the part of cornetd's start-up every replayed shape shares.
type fixture struct {
	rec *recorder
	cnt *counts
	net *netgen.Network
	tb  *testbed.Testbed
	f   *core.Framework
	dep *workflow.Deployment
	log *slog.Logger
	// logf backs log; replayAll closes it.
	logf *os.File
}

func newFixture(rec *recorder) (*fixture, error) {
	net, err := cornetdNetwork()
	if err != nil {
		return nil, err
	}
	tb := testbed.New(1)
	testbed.PopulateVNFs(tb, vnfs)
	f := core.New(map[string]catalog.ImplKind{
		"vCE": catalog.ImplScript, "vGW": catalog.ImplAnsible, "portal": catalog.ImplAnsible,
		"CPE": catalog.ImplAnsible, "vCOM": catalog.ImplAnsible, "vRAR": catalog.ImplAnsible,
		"eNodeB": catalog.ImplVendorCLI, "gNodeB": catalog.ImplVendorCLI,
	}, core.WithInvoker(timingInvoker{tb, rec}), core.WithExecutionDefaults(resilience.Policy{
		MaxAttempts: 1,
		Backoff:     resilience.Backoff{Base: resilience.Duration(100 * time.Millisecond), Jitter: 0.2},
	}))
	// cornetd logs at info to its stderr, which the benchmark points at a
	// file; the replay pays for the same formatting and writes.
	logf, err := os.Create(filepath.Join(outDir, "replay.log"))
	if err != nil {
		return nil, err
	}
	log := obs.NewLogger(logf, slog.LevelInfo, "text")
	f.Engine.Log = log
	dep, err := f.DeployWorkflow(workflow.SoftwareUpgrade(), "vCE")
	if err != nil {
		return nil, err
	}
	return &fixture{rec: rec, cnt: &counts{}, net: net, tb: tb, f: f, dep: dep, log: log, logf: logf}, nil
}

func (fx *fixture) planServer() *planserve.Server {
	return planserve.New(fx.f, planserve.Config{
		CacheSize: 512, CacheTTL: 10 * time.Minute, WarmDelta: 8,
		Admission: planserve.AdmitConfig{Workers: 2, QueueLimit: 64, Log: fx.log},
	})
}

// replayAll replays every workload shape for budget each and returns what it
// counted; the spans are in rec. The SLO tracker is fed from the event
// journal for the whole replay, as in cornetd.
func replayAll(ctx context.Context, seed int64, rec *recorder, budget time.Duration) (*counts, error) {
	fx, err := newFixture(rec)
	if err != nil {
		return nil, err
	}
	tracker := slo.New()
	for _, o := range slo.DefaultObjectives() {
		if err := tracker.Register(o); err != nil {
			return nil, err
		}
	}
	sub := events.Default.Subscribe(events.Filter{}, 256)
	fed := make(chan struct{})
	go func() {
		defer close(fed)
		tracker.Feed(sub)
	}()
	defer func() {
		fx.cnt.dropped = sub.Dropped()
		sub.Close()
		<-fed
		fx.logf.Close()
	}()

	shapes := map[string]func(context.Context, *workload, time.Duration) error{
		"plan_hit": fx.replayPlanHit, "plan_miss": fx.replayPlanMiss,
		"exec_plain": fx.replayExecPlain, "exec_composed": fx.replayExecComposed,
	}
	for _, name := range workloadNames {
		w, err := newWorkload(name, seed)
		if err != nil {
			return nil, err
		}
		w.api = fx.dep.API
		if err := shapes[name](ctx, w, budget); err != nil {
			return nil, fmt.Errorf("replay %s: %w", name, err)
		}
	}
	return fx.cnt, nil
}

// loop calls one with i = 0, 1, ... until the budget is spent, within
// [replayMin, replayMax] calls.
func loop(ctx context.Context, budget time.Duration, one func(i int) error) error {
	deadline := time.Now().Add(budget)
	for i := 0; i < replayMax && (i < replayMin || time.Now().Before(deadline)); i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := one(i); err != nil {
			return err
		}
	}
	return nil
}

// allocsPer reports the heap allocations one call of fn makes, averaged over
// a few calls outside any timed span.
func allocsPer(fn func()) float64 {
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / runs
}

// probeEvent is the journal event the replay publishes to time Publish: the
// shape of the cache-hit event the serving layer emits.
func probeEvent(id string) events.Event {
	return events.Event{Type: events.TypeCacheHit, Source: "bench", ChangeID: id,
		Tenant: "default", Fields: map[string]any{"key": "probe"}}
}

// planLayers times the calls planserve.Server.Plan makes up to its cache
// lookup, one by one on the same inputs, under a "layers" root span of the
// same request; miss, when set, carries on under that root with the calls of
// the miss path. The lookup must hit exactly when miss is nil.
func (fx *fixture) planLayers(ctx context.Context, id string, req *intent.Request, sub *inventory.Inventory,
	opt core.PlanOptions, c *cache.Cache, miss func(root int, b *core.PlanBuild, key string) error) error {
	rec := fx.rec
	root := rec.start("layers", id, 0)
	defer rec.end(root)
	var b *core.PlanBuild
	var err error
	rec.time("translate.build", id, root, func() { b, err = fx.f.BuildPlanRequest(ctx, req, sub, opt) })
	if err != nil {
		return err
	}
	var key string
	rec.time("model.fingerprint", id, root, func() { key = b.Req.Model.Fingerprint() + "|" + string(b.Policy) })
	var hit bool
	rec.time("cache.get", id, root, func() { _, hit = c.Get(key) })
	rec.time("obs.events_publish", id, root, func() { events.Default.Publish(probeEvent(id)) })
	if hit != (miss == nil) {
		return fmt.Errorf("parts cache: hit = %t for key %s", hit, key)
	}
	if miss == nil {
		return nil
	}
	return miss(root, b, key)
}

// encodePlan re-states handlePlan's answer encoding.
func encodePlan(served *planserve.Response, id string) error {
	res := served.Result
	return json.NewEncoder(io.Discard).Encode(struct {
		Method     string         `json:"method"`
		Makespan   int            `json:"makespan"`
		Conflicts  int            `json:"conflicts"`
		TimedOut   bool           `json:"timed_out,omitempty"`
		Tenant     string         `json:"tenant"`
		ChangeID   string         `json:"change_id"`
		CacheHit   bool           `json:"hit"`
		Key        string         `json:"key"`
		WaitNS     int64          `json:"admission_wait_ns"`
		Stats      []engine.Stats `json:"stats"`
		Assignment map[string]int `json:"assignment"`
		Leftovers  []string       `json:"leftovers,omitempty"`
	}{res.Method, res.Makespan, res.Conflicts, res.TimedOut, "default", id,
		served.CacheHit, served.Key, int64(served.Wait), res.Stats, res.Assignment, res.Leftovers})
}

// planRequest replays handlePlan for one document under a root span and
// returns what the later layer spans need.
func (fx *fixture) planRequest(ctx context.Context, name, id string, doc []byte, srv *planserve.Server) (
	req *intent.Request, sub *inventory.Inventory, opt core.PlanOptions, served *planserve.Response, err error) {
	rec := fx.rec
	policy, _ := engine.ParsePolicy("") // no ?backend= on the benchmark's requests
	opt = core.PlanOptions{Topology: fx.net.Topo, Policy: policy}
	ctx = obs.WithChangeID(ctx, id)
	root := rec.start(name, id, 0)
	defer rec.end(root)
	rec.time("intent.parse", id, root, func() { req, err = intent.Parse(doc) })
	if err != nil {
		return
	}
	var targets []string
	rec.time("inventory.filter", id, root, func() { targets = fx.net.Inv.Filter(isEdge) })
	rec.time("inventory.subset", id, root, func() { sub = fx.net.Inv.Subset(targets) })
	rec.time("serve.plan", id, root, func() { served, err = srv.Plan(ctx, "default", req, sub, opt) })
	if err != nil {
		var shed *planserve.ShedError
		if errors.As(err, &shed) {
			fx.cnt.sheds++
		}
		return
	}
	rec.time("cornetd.encode", id, root, func() { err = encodePlan(served, id) })
	return
}

func (fx *fixture) replayPlanHit(ctx context.Context, w *workload, budget time.Duration) error {
	srv := fx.planServer()
	defer srv.Stop()
	parts := cache.New(512, 10*time.Minute)
	// Pre-warm the serving layer with the whole working set, and the parts
	// cache with the same keys.
	for k := 0; k < hitSetSize; k++ {
		req, sub, opt, served, err := fx.planRequest(ctx, "prewarm", "prewarm-"+strconv.Itoa(k), hitDoc(k), srv)
		if err != nil {
			return err
		}
		parts.Put(cache.Entry{Key: served.Key, Value: served.Result})
		if k == 0 {
			b, err := fx.f.BuildPlanRequest(ctx, req, sub, opt)
			if err != nil {
				return err
			}
			fx.cnt.buildAllocs = allocsPer(func() { _, _ = fx.f.BuildPlanRequest(ctx, req, sub, opt) })
			fx.cnt.fingerprintAllocs = allocsPer(func() { _ = b.Req.Model.Fingerprint() })
		}
	}
	before := srv.CacheStats()
	next := w.stream(0)
	err := loop(ctx, budget, func(int) error {
		r := next()
		req, sub, opt, served, err := fx.planRequest(ctx, "replay.plan_hit", r.id, r.body, srv)
		if err != nil {
			return err
		}
		if !served.CacheHit {
			return errors.New("pre-warmed intent missed the plan cache")
		}
		return fx.planLayers(ctx, r.id, req, sub, opt, parts, nil)
	})
	after := srv.CacheStats()
	fx.cnt.hitStats = cache.Stats{Hits: after.Hits - before.Hits, Misses: after.Misses - before.Misses}
	return err
}

func (fx *fixture) replayPlanMiss(ctx context.Context, w *workload, budget time.Duration) error {
	srv := fx.planServer()
	defer srv.Stop()
	parts := cache.New(512, 10*time.Minute)
	adm := planserve.NewAdmitter(planserve.AdmitConfig{Workers: 2, QueueLimit: 64, Log: fx.log})
	defer adm.Stop()
	rec, cnt := fx.rec, fx.cnt
	next := w.stream(0)
	err := loop(ctx, budget, func(int) error {
		r := next()
		req, sub, opt, served, err := fx.planRequest(ctx, "replay.plan_miss", r.id, r.body, srv)
		if err != nil {
			return err
		}
		if served.CacheHit {
			return errors.New("novel fingerprint hit the plan cache")
		}
		cnt.missRequests++
		if served.Warm {
			cnt.warm++
		}
		cnt.waitUS = append(cnt.waitUS, float64(served.Wait)/float64(time.Microsecond))

		// The miss path of planserve.Server.Plan, call by call.
		return fx.planLayers(ctx, r.id, req, sub, opt, parts, func(root int, b *core.PlanBuild, key string) error {
			var res *core.PlanResult
			var rerr error
			admit := rec.start("serve.admission", r.id, root)
			_, err := adm.Submit(ctx, "default", func() {
				rec.time("engine.run_plan", r.id, admit, func() { res, rerr = fx.f.RunPlan(ctx, b, opt) })
			})
			rec.end(admit)
			if err = errors.Join(err, rerr); err != nil {
				return err
			}
			var sigs map[string]uint64
			rec.time("model.item_signatures", r.id, root, func() { sigs = b.Req.Model.ItemSignatures() })
			rec.time("cache.put", r.id, root, func() {
				parts.Put(cache.Entry{Key: key, Family: b.Req.Model.FamilyKey(), Value: res,
					ItemSlots: res.Assignment, ItemSigs: sigs})
			})
			for _, st := range res.Stats {
				if !st.Winner {
					continue
				}
				cnt.solves++
				cnt.nodes = append(cnt.nodes, float64(st.Nodes))
				cnt.steals = append(cnt.steals, float64(st.Steals))
				cnt.wallMS = append(cnt.wallMS, float64(st.Wall)/float64(time.Millisecond))
				cnt.objectives = append(cnt.objectives, float64(st.Objective))
				if st.TimedOut {
					cnt.timedOut++
				}
			}
			return nil
		})
	})
	cnt.missStats = srv.CacheStats()
	return err
}

func (fx *fixture) replayExecPlain(ctx context.Context, w *workload, budget time.Duration) error {
	rec, cnt := fx.rec, fx.cnt
	next := w.stream(0)
	return loop(ctx, budget, func(int) error {
		r := next()
		seq := events.Default.LastSeq()
		root := rec.start("replay.exec_plain", r.id, 0)
		var body struct {
			API    string            `json:"api"`
			Inputs map[string]string `json:"inputs"`
		}
		var err error
		rec.time("cornetd.decode", r.id, root, func() { err = json.Unmarshal(r.body, &body) })
		if err != nil {
			return err
		}
		var exec *orchestrator.Execution
		id := rec.start("orchestrator.execute", r.id, root)
		xctx := obs.WithTenant(obs.WithChangeID(withSpan(ctx, id, r.id), r.id), "default")
		exec, err = fx.f.Execute(xctx, fx.dep, body.Inputs)
		rec.end(id)
		if err != nil {
			return err
		}
		rec.time("cornetd.encode", r.id, root, func() {
			err = json.NewEncoder(io.Discard).Encode(struct {
				Status   string                  `json:"status"`
				ChangeID string                  `json:"change_id"`
				Logs     []orchestrator.BlockLog `json:"logs"`
			}{string(exec.Status), r.id, exec.Logs})
		})
		rec.end(root)
		if err != nil {
			return err
		}
		cnt.events += events.Default.LastSeq() - seq
		cnt.executes++
		cnt.invokes += len(exec.Logs)
		cnt.blocksFailed += len(exec.FailedBlocks())
		if exec.Status != orchestrator.StatusSuccess {
			return fmt.Errorf("execution status %q", exec.Status)
		}
		layers := rec.start("layers", r.id, 0)
		rec.time("obs.events_publish", r.id, layers, func() { events.Default.Publish(probeEvent(r.id)) })
		rec.end(layers)
		return nil
	})
}

// composeIntent re-states cmd/cornetd's newComposeIntent: hourly slots from
// a fixed epoch, per-NF-type concurrency capacity.
func composeIntent(slots, capacity int) (*intent.Request, error) {
	const epoch = "2026-01-01 00:00:00"
	start, _ := time.Parse(intent.TimeLayout, epoch)
	req := &intent.Request{
		SchedulingWindow: intent.Window{
			Start:       epoch,
			End:         start.Add(time.Duration(slots) * time.Hour).Format(intent.TimeLayout),
			Granularity: intent.Granularity{Metric: "hour", Value: 1},
		},
		SchedulableAttribute: inventory.AttrCommonID,
		Constraints: []intent.Constraint{{
			Name:               intent.Concurrency,
			BaseAttribute:      inventory.AttrCommonID,
			AggregateAttribute: inventory.AttrNFType,
			DefaultCapacity:    capacity,
		}},
	}
	return req, req.Validate()
}

// marketOf re-states cmd/cornetd's assignMarket: even instances east, odd west.
func marketOf(nf *testbed.NF) map[string]string {
	idx, _ := strconv.Atoi(nf.ID[strings.LastIndex(nf.ID, "-")+1:])
	return map[string]string{inventory.AttrMarket: []string{"east", "west"}[idx%2]}
}

// timedStrategy records a span around the composer's calls into its
// Strategy; gen names the generation span they belong to.
type timedStrategy struct {
	compose.Strategy
	rec *recorder
	gen *generationSpan
}

// generationSpan is the open round's "compose.generation" span. Rounds are
// replayed one at a time, so one is open at a time.
type generationSpan struct {
	mu      sync.Mutex
	id      int
	req     string
	started int64 // ns since the recorder's epoch: the round's first Submit
}

func (g *generationSpan) open(id int, req string) {
	g.mu.Lock()
	g.id, g.req, g.started = id, req, 0
	g.mu.Unlock()
}

// submitting notes the round's first Submit call.
func (g *generationSpan) submitting(now int64) {
	g.mu.Lock()
	if g.started == 0 {
		g.started = now
	}
	g.mu.Unlock()
}

func (g *generationSpan) get() (id int, req string, started int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.id, g.req, g.started
}

func (t timedStrategy) Validate(deltas []*compose.Delta) (d *compose.Diagnosis) {
	id, req, _ := t.gen.get()
	t.rec.time("compose.validate", req, id, func() { d = t.Strategy.Validate(deltas) })
	return d
}

func (t timedStrategy) Compose(changeID string, deltas []*compose.Delta) (d *compose.Delta, err error) {
	id, req, started := t.gen.get()
	// The window wait ends where the seal begins: at the merge.
	t.rec.add("compose.window_wait", req, id, started, t.rec.now())
	t.rec.time("compose.merge", req, id, func() { d, err = t.Strategy.Compose(changeID, deltas) })
	return d, err
}

func (fx *fixture) replayExecComposed(ctx context.Context, w *workload, budget time.Duration) error {
	rec, cnt := fx.rec, fx.cnt
	compIntent, err := composeIntent(6, 4)
	if err != nil {
		return err
	}
	fleet := testbed.MirrorInventory(fx.tb, marketOf)
	srv := fx.planServer()
	defer srv.Stop()
	base, err := compose.ForName("subtree")
	if err != nil {
		return err
	}
	gen := &generationSpan{}
	inputs := map[string]map[string]string{} // member change id -> workflow inputs
	var imu sync.Mutex

	// solve re-states cmd/cornetd's composeSolve for members with one
	// payload each: plan the union scope, dispatch every instance under its
	// owner's change id.
	solve := func(ctx context.Context, composed *compose.Delta, members []*compose.Delta) (any, error) {
		gid, greq, _ := gen.get()
		sid := rec.start("compose.solve", greq, gid)
		defer rec.end(sid)
		cnt.generations++
		cnt.members += len(members)
		owner := map[string]string{}
		for _, m := range members {
			for _, op := range m.Ops {
				owner[op.Path[len(op.Path)-1]] = m.ChangeID
			}
		}
		instances := make([]string, 0, len(owner))
		for inst := range owner {
			instances = append(instances, inst)
		}
		sort.Strings(instances)
		var served *planserve.Response
		var err error
		rec.time("serve.plan", greq, sid, func() {
			served, err = srv.Plan(ctx, composed.Tenant, compIntent, fleet.Subset(instances), core.PlanOptions{RequireAll: true})
		})
		if err != nil {
			return nil, err
		}
		changes := make([]orchestrator.ScheduledChange, 0, len(instances))
		imu.Lock()
		for _, inst := range instances {
			slot, ok := served.Result.Assignment[inst]
			if !ok {
				imu.Unlock()
				return nil, fmt.Errorf("instance %s left unscheduled", inst)
			}
			changes = append(changes, orchestrator.ScheduledChange{
				Instance: inst, Timeslot: slot, Inputs: inputs[owner[inst]], ChangeID: owner[inst]})
		}
		imu.Unlock()
		did := rec.start("orchestrator.dispatch", greq, sid)
		results := orchestrator.NewDispatcher(fx.f.Engine, len(changes)).Run(withSpan(ctx, did, greq),
			func(orchestrator.ScheduledChange) (*workflow.Deployment, error) { return fx.dep, nil }, changes)
		rec.end(did)
		for _, res := range results {
			if res.Err != nil || res.Exec == nil || res.Exec.Status != orchestrator.StatusSuccess {
				return nil, fmt.Errorf("dispatch %s: %v", res.Instance, res.Err)
			}
			cnt.blocksFailed += len(res.Exec.FailedBlocks())
		}
		return served, nil
	}
	composer := compose.NewComposer(compose.Config{
		Strategy: timedStrategy{base, rec, gen}, Window: composeWindow, Solve: solve,
	})
	defer composer.Stop()

	streams := make([]func() request, clients)
	for c := range streams {
		streams[c] = w.stream(c)
	}
	// member replays executeComposed for one team's submission.
	member := func(r request) error {
		var body struct {
			Inputs  map[string]string `json:"inputs"`
			Compose struct {
				Scope []string `json:"scope"`
			} `json:"compose"`
		}
		root := rec.start("replay.exec_composed", r.id, 0)
		defer rec.end(root)
		var err error
		rec.time("cornetd.decode", r.id, root, func() { err = json.Unmarshal(r.body, &body) })
		if err != nil {
			return err
		}
		// buildDelta: translate the scope under the compose intent and sign
		// each element with its item signature XOR the payload signature.
		var delta *compose.Delta
		build := rec.start("compose.delta_build", r.id, root)
		ids := append([]string(nil), body.Compose.Scope...)
		sort.Strings(ids)
		var tr *translate.Result
		rec.time("translate.translate", r.id, build, func() {
			tr, err = translate.Translate(compIntent, fleet.Subset(ids), translate.Options{})
		})
		if err != nil {
			return err
		}
		pay := compose.Sig(fx.dep.API, "sw_version", body.Inputs["sw_version"])
		var sigs map[string]uint64
		rec.time("model.item_signatures", r.id, build, func() { sigs = tr.Model.ItemSignatures() })
		delta = compose.NewDelta(r.id, "default")
		for id, sig := range sigs {
			e, _ := fleet.Get(id)
			m, _ := e.Attr(inventory.AttrMarket)
			delta.AddNode(compose.Path{m, id}, sig^pay)
		}
		delta = delta.Canon()
		rec.end(build)

		imu.Lock()
		inputs[r.id] = body.Inputs
		imu.Unlock()
		gen.submitting(rec.now())
		var out *compose.Outcome
		rec.time("compose.submit", r.id, root, func() {
			out, err = composer.Submit(obs.WithTenant(obs.WithChangeID(ctx, r.id), "default"), delta, compose.Reject)
		})
		imu.Lock()
		delete(inputs, r.id)
		imu.Unlock()
		if err != nil {
			var cerr *compose.ConflictError
			if errors.As(err, &cerr) {
				cnt.conflicts++
			}
			return err
		}
		rec.time("cornetd.encode", r.id, root, func() { err = json.NewEncoder(io.Discard).Encode(out) })
		return err
	}
	return loop(ctx, budget, func(i int) error {
		req := "generation-" + strconv.Itoa(i)
		gid := rec.start("compose.generation", req, 0)
		gen.open(gid, req)
		errs := make([]error, clients)
		var wg sync.WaitGroup
		for c := range streams {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[c] = member(streams[c]())
			}()
		}
		wg.Wait()
		rec.end(gid)
		return errors.Join(errs...)
	})
}
