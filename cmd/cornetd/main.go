// Command cornetd serves CORNET over REST: the building-block endpoints of
// a simulated testbed (POST /api/bb/<block>), the catalog (GET
// /api/catalog), workflow deployment (POST /api/wf/deploy), workflow
// execution (POST /api/wf/execute), schedule planning (POST /api/plan),
// declarative desired fleet state (POST /api/desired), and the change
// journal the reconciler writes (GET /api/revisions).
//
// It is the binary face of the framework — the same role the paper's
// CORNET deployment plays for the operations teams' user interfaces.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cornet/internal/catalog"
	"cornet/internal/compose"
	composeserve "cornet/internal/compose/serve"
	"cornet/internal/controller/reconcile"
	"cornet/internal/core"
	"cornet/internal/inventory"
	"cornet/internal/netgen"
	"cornet/internal/obs"
	"cornet/internal/obs/slo"
	"cornet/internal/orchestrator/resilience"
	"cornet/internal/plan/engine"
	"cornet/internal/plan/intent"
	planserve "cornet/internal/plan/serve"
	"cornet/internal/testbed"
	"cornet/internal/workflow"
)

type server struct {
	f   *core.Framework
	tb  *testbed.Testbed
	net *netgen.Network
	// planTimeout bounds each /api/plan request's schedule discovery.
	planTimeout time.Duration
	// planSrv is the multi-tenant serving layer behind /api/plan: plan
	// cache, singleflight, warm-start re-planning, and admission control.
	planSrv *planserve.Server
	// edge memoises the subset of net.Inv that /api/plan plans over (see
	// planTargets); nil until the first plan request.
	edge atomic.Pointer[edgeSubset]

	// fleetInv mirrors the testbed into an inventory the declarative
	// reconciler diffs against and writes applied changes back to.
	fleetInv *inventory.Inventory
	// rec is the desired-state reconcile controller behind /api/desired;
	// serve() starts it alongside the listener.
	rec *reconcile.Manager

	// slo tracks the serving objectives, fed from the event journal;
	// sloStop detaches the feed (serve() and tests call it on shutdown).
	slo     *slo.Tracker
	sloStop func()

	// comp merges concurrently submitted /api/wf/execute changes with
	// compose scopes into single composed schedules.
	comp *composeserve.Service

	log     *slog.Logger
	httpm   *obs.HTTPMetrics
	started time.Time

	mu          sync.RWMutex
	deployments map[string]*workflow.Deployment
}

// newServer assembles a server around a framework; the orchestrator engine
// inherits the server logger so workflow executions emit per-block records.
func newServer(f *core.Framework, tb *testbed.Testbed, net *netgen.Network,
	planTimeout time.Duration, planCfg planserve.Config, compCfg composeserve.Settings,
	log *slog.Logger) *server {
	if log == nil {
		log = obs.NopLogger()
	}
	if f.Engine != nil {
		f.Engine.Log = log
	}
	s := &server{
		f: f, tb: tb, net: net, planTimeout: planTimeout,
		planSrv:     planserve.New(f, planCfg),
		log:         log,
		httpm:       obs.NewHTTPMetrics(obs.Default),
		started:     time.Now(),
		deployments: map[string]*workflow.Deployment{},
		fleetInv:    testbed.MirrorInventory(tb, assignMarket),
	}
	comp, err := composeserve.New(composeserve.Config{
		Settings: compCfg, Inventory: s.fleetInv, Plan: s.planSrv.Plan, Engine: f.Engine,
	})
	if err != nil {
		panic(err) // flag values are validated in main before reaching here
	}
	s.comp = comp
	s.slo, _, s.sloStop = newSLOTracker()
	registerBuildInfo()
	rec, err := reconcile.New(reconcile.Config{
		Framework: f, Inventory: s.fleetInv, Log: log,
	})
	if err != nil {
		// Framework and Inventory are both set above — the only failure modes.
		panic(err)
	}
	s.rec = rec
	return s
}

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		vnfs        = flag.Int("vnfs", 4, "testbed instances per vNF type")
		seed        = flag.Int64("seed", 1, "generator seed")
		planTimeout = flag.Duration("plan-timeout", 30*time.Second, "per-request schedule discovery deadline (0 = unbounded)")

		// Serving-layer knobs: plan cache, admission control, warm starts.
		planCacheSize   = flag.Int("plan-cache-size", 512, "plan cache capacity in entries (<0 disables)")
		planCacheTTL    = flag.Duration("plan-cache-ttl", 10*time.Minute, "plan cache entry lifetime (<0 = never expires)")
		planQueueLimit  = flag.Int("plan-queue-limit", 64, "admission queue bound across tenants; beyond it requests are shed with 503")
		planWorkers     = flag.Int("plan-workers", 2, "concurrent plan solves")
		planTenantQuota = flag.Int("plan-tenant-quota", 0, "per-tenant admission queue bound (0 = the global limit)")
		planWarmDelta   = flag.Int("plan-warm-delta", 8, "max item-level delta against a cached plan that still warm-starts the solve (<0 disables)")

		// Concurrent change composition over /api/wf/execute.
		composeStrategy = flag.String("compose-strategy", "subtree", "composition conflict granularity (subtree|node|attribute)")
		composeWindow   = flag.Duration("compose-window", compose.DefaultWindow, "longest a change waits for others to compose with; a generation seals sooner once everyone who composed last time is back")
		composeBatch    = flag.Int("compose-batch", 0, "seal a composition generation at this many members even if the cohort is larger (0 = no cap)")
		composeConflict = flag.String("compose-conflict", "reject", "default disposition of conflicting compose submissions (queue|reject)")
		composeSlots    = flag.Int("compose-slots", 4, "maintenance windows in a composed schedule")
		composeCapacity = flag.Int("compose-capacity", 2, "per-slot concurrency capacity of composed schedules")
		drainTimeout    = flag.Duration("drain-timeout", 15*time.Second, "in-flight request drain budget on SIGINT/SIGTERM")
		runtimeSample   = flag.Duration("runtime-sample-interval", 10*time.Second, "Go runtime self-sampling interval for the cornet_go_* gauges (0 disables)")
		logLevel        = flag.String("log-level", "info", "log level (debug|info|warn|error)")
		logFormat       = flag.String("log-format", "text", "log format (text|json)")

		// Execution-policy defaults applied to every building block; task
		// nodes override them via their workflow JSON policy.
		blockTimeout  = flag.Duration("block-timeout", 0, "per-attempt building-block timeout (0 = none)")
		blockAttempts = flag.Int("block-attempts", 1, "building-block invocation budget including the first attempt")
		blockBackoff  = flag.Duration("block-backoff", 100*time.Millisecond, "base backoff between block retries")
		blockAction   = flag.String("block-action", "", "default failure action when attempts run out (continue|skip|abort|pause|rollback)")

		// Circuit breaker over building-block APIs.
		breakerThreshold = flag.Int("breaker-threshold", 0, "consecutive failures tripping a block API's circuit breaker (0 = breakers off)")
		breakerCooldown  = flag.Duration("breaker-cooldown", 30*time.Second, "open-breaker cooldown before half-open probes")

		// Startup fault injection into the simulated testbed (also settable
		// at run time via POST /api/testbed/faults).
		faultTarget    = flag.String("fault-target", "*", "NF instance the startup fault spec applies to (\"*\" = all)")
		faultErrorRate = flag.Float64("fault-error-rate", 0, "probability (0..1) a testbed call fails transiently")
		faultLatency   = flag.Duration("fault-latency", 0, "fixed latency added to every faulted testbed call")
		faultJitter    = flag.Duration("fault-latency-jitter", 0, "uniform extra latency added to faulted calls")
		faultMode      = flag.String("fault-mode", "", "structural fault mode (flap|blackhole; empty = none)")
		faultFlap      = flag.Int("fault-flap-period", 0, "calls per up/down window in flap mode (0 = 5)")
	)
	flag.Parse()

	logger := obs.NewLogger(os.Stderr, obs.ParseLevel(*logLevel), *logFormat)
	tb := testbed.New(*seed)
	ids := testbed.PopulateVNFs(tb, *vnfs)
	startupFault := testbed.FaultSpec{
		ErrorRate:       *faultErrorRate,
		LatencyMS:       int(faultLatency.Milliseconds()),
		LatencyJitterMS: int(faultJitter.Milliseconds()),
		Mode:            *faultMode,
		FlapPeriod:      *faultFlap,
	}
	if err := tb.SetFault(*faultTarget, startupFault); err != nil {
		logger.Error("bad fault flags", "err", err)
		os.Exit(1)
	}
	net, err := netgen.Cellular(netgen.DefaultCellular(200, *seed))
	if err != nil {
		logger.Error("netgen failed", "err", err)
		os.Exit(1)
	}
	defaults := resilience.Policy{
		Timeout:     resilience.Duration(*blockTimeout),
		MaxAttempts: *blockAttempts,
		Backoff:     resilience.Backoff{Base: resilience.Duration(*blockBackoff), Jitter: 0.2},
		OnExhausted: resilience.Action(*blockAction),
	}
	if err := defaults.Validate(); err != nil {
		logger.Error("bad block policy flags", "err", err)
		os.Exit(1)
	}
	opts := []core.Option{core.WithInvoker(tb), core.WithExecutionDefaults(defaults)}
	if *breakerThreshold > 0 {
		opts = append(opts, core.WithBreakers(resilience.BreakerConfig{
			Threshold: *breakerThreshold,
			Cooldown:  resilience.Duration(*breakerCooldown),
		}))
	}
	f := core.New(map[string]catalog.ImplKind{
		"vCE": catalog.ImplScript, "vGW": catalog.ImplAnsible, "portal": catalog.ImplAnsible,
		"CPE": catalog.ImplAnsible, "vCOM": catalog.ImplAnsible, "vRAR": catalog.ImplAnsible,
		"eNodeB": catalog.ImplVendorCLI, "gNodeB": catalog.ImplVendorCLI,
	}, opts...)

	compCfg := composeserve.Settings{
		Strategy: *composeStrategy,
		Window:   *composeWindow,
		MaxBatch: *composeBatch,
		Conflict: *composeConflict,
		Slots:    *composeSlots,
		Capacity: *composeCapacity,
	}
	if err := compCfg.Normalize(); err != nil {
		logger.Error("bad compose flags", "err", err)
		os.Exit(1)
	}
	s := newServer(f, tb, net, *planTimeout, planserve.Config{
		CacheSize: *planCacheSize,
		CacheTTL:  *planCacheTTL,
		WarmDelta: *planWarmDelta,
		Admission: planserve.AdmitConfig{
			Workers:     *planWorkers,
			QueueLimit:  *planQueueLimit,
			TenantQuota: *planTenantQuota,
		},
	}, compCfg, logger)
	obs.Default.GaugeFunc("cornet_uptime_seconds",
		"Seconds since cornetd started.",
		func() float64 { return time.Since(s.started).Seconds() })
	if *runtimeSample > 0 {
		sampler := obs.StartRuntimeSampler(obs.Default, *runtimeSample)
		defer sampler.Stop()
	}

	logger.Info("cornetd starting",
		"blocks", f.Catalog.Len(), "testbed_vnfs", tb.Len(),
		"sample_ids", fmt.Sprint(ids[:2]), "inventory", net.Inv.Len(), "addr", *addr)
	if err := serve(s, *addr, *drainTimeout); err != nil && err != http.ErrServerClosed {
		logger.Error("server failed", "err", err)
		os.Exit(1)
	}
}

func (s *server) handleCatalog(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.f.Catalog.List())
}

// handleDeploy accepts {"workflow": "<library name>" | {...design...},
// "nf_type": "vCE"} and returns the deployment artifact.
func (s *server) handleDeploy(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	var req struct {
		Workflow json.RawMessage `json:"workflow"`
		NFType   string          `json:"nf_type"`
	}
	if err := decode(r, &req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	wf, err := resolveWorkflow(req.Workflow)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	dep, err := s.f.DeployWorkflow(wf, req.NFType)
	if err != nil {
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	s.mu.Lock()
	s.deployments[dep.API] = dep
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, dep)
}

func resolveWorkflow(raw json.RawMessage) (*workflow.Workflow, error) {
	var name string
	if err := json.Unmarshal(raw, &name); err == nil {
		switch name {
		case "software-upgrade":
			return workflow.SoftwareUpgrade(), nil
		case "config-change":
			return workflow.ConfigChange(), nil
		case "download-install":
			return workflow.DownloadInstall(), nil
		case "activate-verify":
			return workflow.ActivateVerify(), nil
		default:
			return nil, fmt.Errorf("unknown library workflow %q", name)
		}
	}
	var wf workflow.Workflow
	if err := json.Unmarshal(raw, &wf); err != nil {
		return nil, fmt.Errorf("decode workflow: %w", err)
	}
	return &wf, nil
}

// handleExecute accepts {"api": "<deployment api>", "inputs": {...}}.
// With an optional "compose" object declaring the change's network scope,
// the execution routes through the composition layer instead: concurrent
// submissions with composable scopes merge into one composed schedule
// (see executeComposed).
func (s *server) handleExecute(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	var req struct {
		API     string            `json:"api"`
		Inputs  map[string]string `json:"inputs"`
		Compose *composeRequest   `json:"compose,omitempty"`
	}
	if err := decode(r, &req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.mu.RLock()
	dep := s.deployments[req.API]
	s.mu.RUnlock()
	if dep == nil {
		http.Error(w, "unknown deployment API (deploy first)", http.StatusNotFound)
		return
	}
	tenant, err := planTenant(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	changeID := changeIDFromRequest(r)
	if req.Compose != nil {
		s.executeComposed(w, r, dep, req.Inputs, req.Compose, tenant, changeID)
		return
	}
	ctx := obs.WithTenant(obs.WithChangeID(r.Context(), changeID), tenant)
	var root *obs.Span
	if r.URL.Query().Get("trace") == "1" {
		ctx, root = obs.StartTrace(ctx, "http.wf.execute")
	}
	exec, err := s.f.Execute(ctx, dep, req.Inputs)
	root.End()
	type blockLog struct {
		Node, Block, Status, Err string
		DurationNS               int64
	}
	w.Header().Set("X-Change-ID", changeID)
	resp := struct {
		Status   string          `json:"status"`
		ChangeID string          `json:"change_id"`
		Error    string          `json:"error,omitempty"`
		Logs     []blockLog      `json:"logs"`
		Trace    *obs.SpanExport `json:"trace,omitempty"`
	}{Status: string(exec.Status), ChangeID: changeID, Trace: root.Export()}
	if err != nil {
		resp.Error = err.Error()
	}
	for _, l := range exec.Logs {
		resp.Logs = append(resp.Logs, blockLog{
			Node: l.NodeID, Block: l.Block, Status: string(l.Status),
			Err: l.Err, DurationNS: int64(l.Duration),
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// planQueryParams is the /api/plan query allowlist; anything else is a
// 400 so typos (parallellism=8) fail loudly instead of silently planning
// with defaults.
var planQueryParams = map[string]bool{
	"backend": true, "timeout": true, "parallelism": true,
	"trace": true, "tenant": true,
}

// maxPlanParallelism caps the per-request search worker count: beyond
// any plausible core count, larger values only let one tenant spawn
// unbounded goroutines.
const maxPlanParallelism = 256

// maxPlanBody caps the intent document size.
const maxPlanBody = 4 << 20

// tenantOK validates a tenant identifier: 1-64 chars of [A-Za-z0-9._-].
func tenantOK(t string) bool {
	if len(t) == 0 || len(t) > 64 {
		return false
	}
	for _, c := range t {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// planTenant resolves the requesting tenant from the X-Tenant header or
// the ?tenant query parameter (header wins), defaulting to "default".
func planTenant(r *http.Request) (string, error) {
	t := r.Header.Get("X-Tenant")
	if t == "" {
		t = r.URL.Query().Get("tenant")
	}
	if t == "" {
		return "default", nil
	}
	if !tenantOK(t) {
		return "", fmt.Errorf("bad tenant %q: want 1-64 chars of [A-Za-z0-9._-]", t)
	}
	return t, nil
}

// edgeSubset is the edge-layer subset of net.Inv as of one version of it.
type edgeSubset struct {
	version uint64
	inv     *inventory.Inventory
}

// planTargets returns the edge-layer subset of the server's inventory that
// /api/plan plans over. The subset is built on first use and again only
// after net.Inv's version moved, so consecutive requests hand the serving
// layer the same *Inventory with the same stamp — which is what lets its
// request key recognise them. The version is read before the subset is
// built: a mutation racing the build leaves a subset newer than its label,
// which costs one extra rebuild and never serves stale elements.
func (s *server) planTargets() *inventory.Inventory {
	_, version := s.net.Inv.Stamp()
	if m := s.edge.Load(); m != nil && m.version == version {
		return m.inv
	}
	targets := s.net.Inv.Filter(func(e *inventory.Element) bool {
		layer, _ := e.Attr(inventory.AttrLayer)
		return layer == "edge"
	})
	m := &edgeSubset{version: version, inv: s.net.Inv.Subset(targets)}
	s.edge.Store(m)
	return m.inv
}

// handlePlan accepts the Listing 1 intent document and plans over the
// server's synthetic RAN inventory through the serving layer: canonical
// plan cache, singleflight, warm-start re-planning, and tenant-fair
// admission (503 + Retry-After under overload). The optional ?backend=
// query parameter selects the planning policy (auto | solver | heuristic
// | portfolio); ?timeout= tightens the server's -plan-timeout for this
// request; ?parallelism= sets the search worker count per backend (0 =
// all CPUs, 1 = sequential); the tenant comes from the X-Tenant header
// or ?tenant=. Discovery runs under a context derived from the request,
// so a disconnecting client aborts the search.
func (s *server) handlePlan(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	for param, vals := range r.URL.Query() {
		if !planQueryParams[param] {
			http.Error(w, fmt.Sprintf("unknown query parameter %q (valid: backend, timeout, parallelism, trace, tenant)", param), http.StatusBadRequest)
			return
		}
		if len(vals) > 1 {
			http.Error(w, fmt.Sprintf("query parameter %q given %d times", param, len(vals)), http.StatusBadRequest)
			return
		}
	}
	policy, err := engine.ParsePolicy(r.URL.Query().Get("backend"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	timeout := s.planTimeout
	if raw := r.URL.Query().Get("timeout"); raw != "" {
		d, err := time.ParseDuration(raw)
		if err != nil {
			http.Error(w, fmt.Sprintf("bad timeout: %v", err), http.StatusBadRequest)
			return
		}
		if d <= 0 {
			http.Error(w, fmt.Sprintf("bad timeout %q: want a positive duration", raw), http.StatusBadRequest)
			return
		}
		timeout = d
	}
	parallelism := 0
	if raw := r.URL.Query().Get("parallelism"); raw != "" {
		parallelism, err = strconv.Atoi(raw)
		if err != nil || parallelism < 0 || parallelism > maxPlanParallelism {
			http.Error(w, fmt.Sprintf("bad parallelism %q: want an integer in 0..%d", raw, maxPlanParallelism), http.StatusBadRequest)
			return
		}
	}
	tenant, err := planTenant(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	doc, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxPlanBody))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, fmt.Sprintf("intent document exceeds %d bytes", tooBig.Limit), http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	req, err := intent.Parse(doc)
	if err != nil {
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	changeID := changeIDFromRequest(r)
	ctx := obs.WithChangeID(r.Context(), changeID)
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	var root *obs.Span
	if r.URL.Query().Get("trace") == "1" {
		ctx, root = obs.StartTrace(ctx, "http.plan")
	}
	served, err := s.planSrv.Plan(ctx, tenant, req, s.planTargets(), core.PlanOptions{
		Topology:    s.net.Topo,
		Policy:      policy,
		Parallelism: parallelism,
	})
	root.End()
	if err != nil {
		var shed *planserve.ShedError
		if errors.As(err, &shed) {
			w.Header().Set("Retry-After", strconv.Itoa(int(shed.RetryAfter.Seconds()+0.5)))
			http.Error(w, shed.Error(), http.StatusServiceUnavailable)
			return
		}
		if errors.Is(err, planserve.ErrStopped) {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	res := served.Result
	type backendStats struct {
		Backend        string `json:"backend"`
		WallNS         int64  `json:"wall_ns"`
		Nodes          int64  `json:"nodes,omitempty"`
		Restarts       int    `json:"restarts,omitempty"`
		Workers        int    `json:"workers,omitempty"`
		NodesPerWorker int64  `json:"nodes_per_worker,omitempty"`
		Steals         int64  `json:"steals,omitempty"`
		Splits         int64  `json:"splits,omitempty"`
		ReplayNodes    int64  `json:"replay_nodes,omitempty"`
		Objective      int64  `json:"objective"`
		Conflicts      int    `json:"conflicts"`
		TimedOut       bool   `json:"timed_out,omitempty"`
		Winner         bool   `json:"winner,omitempty"`
		Err            string `json:"error,omitempty"`
	}
	stats := make([]backendStats, 0, len(res.Stats))
	for _, st := range res.Stats {
		stats = append(stats, backendStats{
			Backend: st.Backend, WallNS: int64(st.Wall), Nodes: st.Nodes,
			Restarts: st.Restarts, Workers: st.Workers, NodesPerWorker: st.NodesPerWorker,
			Steals: st.Steals, Splits: st.Splits, ReplayNodes: st.ReplayNodes,
			Objective: st.Objective, Conflicts: st.Conflicts,
			TimedOut: st.TimedOut, Winner: st.Winner, Err: st.Err,
		})
	}
	type cacheInfo struct {
		Hit    bool   `json:"hit"`
		Warm   bool   `json:"warm,omitempty"`
		Shared bool   `json:"shared,omitempty"`
		Key    string `json:"key,omitempty"`
	}
	w.Header().Set("X-Change-ID", changeID)
	writeJSON(w, http.StatusOK, struct {
		Method     string          `json:"method"`
		Makespan   int             `json:"makespan"`
		Conflicts  int             `json:"conflicts"`
		TimedOut   bool            `json:"timed_out,omitempty"`
		Tenant     string          `json:"tenant"`
		ChangeID   string          `json:"change_id"`
		Cache      cacheInfo       `json:"cache"`
		WaitNS     int64           `json:"admission_wait_ns"`
		Stats      []backendStats  `json:"stats"`
		Assignment map[string]int  `json:"assignment"`
		Leftovers  []string        `json:"leftovers,omitempty"`
		Trace      *obs.SpanExport `json:"trace,omitempty"`
	}{res.Method, res.Makespan, res.Conflicts, res.TimedOut,
		tenant, changeID, cacheInfo{Hit: served.CacheHit, Warm: served.Warm, Shared: served.Shared, Key: served.Key},
		int64(served.Wait), stats, res.Assignment, res.Leftovers, root.Export()})
}

func decode(r *http.Request, v any) error {
	body, err := io.ReadAll(io.LimitReader(r.Body, 4<<20))
	if err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
