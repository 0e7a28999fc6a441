package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cornet/internal/catalog"
	"cornet/internal/core"
	"cornet/internal/inventory"
	"cornet/internal/netgen"
	"cornet/internal/plan/engine"
	"cornet/internal/plan/intent"
	"cornet/internal/plan/solver"
)

// countingBackend wraps a backend to count solves (and optionally slow
// them down so singleflight followers reliably join the leader).
type countingBackend struct {
	inner engine.Backend
	calls *atomic.Int64
	delay time.Duration
}

func (b countingBackend) Name() string                      { return b.inner.Name() }
func (b countingBackend) Supports(req *engine.Request) bool { return b.inner.Supports(req) }

func (b countingBackend) Solve(ctx context.Context, req *engine.Request, opt engine.Options) (engine.Result, engine.Stats, error) {
	b.calls.Add(1)
	if b.delay > 0 {
		time.Sleep(b.delay)
	}
	return b.inner.Solve(ctx, req, opt)
}

type fixture struct {
	srv   *Server
	req   func(cap int) *intent.Request
	inv   *inventory.Inventory
	calls *atomic.Int64
}

func newFixture(t *testing.T, delay time.Duration, cfg Config) *fixture {
	t.Helper()
	net, err := netgen.Cellular(netgen.CellularConfig{
		Seed: 1, Markets: 1, TACsPerMarket: 2, USIDsPerTAC: 5,
		GNodeBFraction: 1, EMSCount: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	f := core.New(map[string]catalog.ImplKind{"vCE": catalog.ImplScript})
	f.SolverOptions = solver.Options{FirstSolutionOnly: true}
	var calls atomic.Int64
	f.Planner = &engine.Engine{Solver: countingBackend{
		inner: engine.DecomposedBackend{},
		calls: &calls, delay: delay,
	}}
	enbs := net.Inv.ByAttr("nf_type", "eNodeB")
	gnbs := net.Inv.ByAttr("nf_type", "gNodeB")
	sub := net.Inv.Subset(append(enbs, gnbs...))
	srv := New(f, cfg)
	t.Cleanup(srv.Stop)
	return &fixture{
		srv: srv,
		req: func(cap int) *intent.Request {
			doc := fmt.Sprintf(`{
			  "scheduling_window": {"start": "2020-07-01 00:00:00", "end": "2020-07-15 00:00:00",
			    "granularity": {"metric":"day","value":1}},
			  "schedulable_attribute": "common_id",
			  "constraints": [
			    {"name": "concurrency", "base_attribute": "common_id", "default_capacity": %d},
			    {"name": "consistency", "attribute": "usid"}
			  ]
			}`, cap)
			r, err := intent.Parse([]byte(doc))
			if err != nil {
				t.Fatal(err)
			}
			return r
		},
		inv:   sub,
		calls: &calls,
	}
}

func solverOpt() core.PlanOptions {
	return core.PlanOptions{Policy: engine.ForceSolver, RequireAll: true, Parallelism: 1}
}

func TestPlanCacheHit(t *testing.T) {
	fx := newFixture(t, 0, Config{})
	ctx := context.Background()

	r1, err := fx.srv.Plan(ctx, "t1", fx.req(6), fx.inv, solverOpt())
	if err != nil {
		t.Fatal(err)
	}
	if r1.CacheHit || r1.Key == "" {
		t.Fatalf("cold request: hit=%v key=%q", r1.CacheHit, r1.Key)
	}
	r2, err := fx.srv.Plan(ctx, "t2", fx.req(6), fx.inv, solverOpt())
	if err != nil {
		t.Fatal(err)
	}
	if !r2.CacheHit {
		t.Fatal("identical request missed the cache")
	}
	if r2.Key != r1.Key {
		t.Fatalf("keys differ: %q vs %q", r1.Key, r2.Key)
	}
	if r2.Result != r1.Result {
		t.Fatal("cache hit did not share the result")
	}
	if got := fx.calls.Load(); got != 1 {
		t.Fatalf("solves = %d, want 1", got)
	}
	// A semantically different request must miss.
	r3, err := fx.srv.Plan(ctx, "t1", fx.req(5), fx.inv, solverOpt())
	if err != nil {
		t.Fatal(err)
	}
	if r3.CacheHit || r3.Key == r1.Key {
		t.Fatalf("different model: hit=%v sameKey=%v", r3.CacheHit, r3.Key == r1.Key)
	}
	if got := fx.calls.Load(); got != 2 {
		t.Fatalf("solves = %d, want 2", got)
	}
	st := fx.srv.CacheStats()
	if st.Hits != 1 || st.Entries != 2 {
		t.Fatalf("cache stats = %+v", st)
	}
}

func TestPlanSingleflightCollapse(t *testing.T) {
	fx := newFixture(t, 100*time.Millisecond, Config{})
	const n = 8
	var wg sync.WaitGroup
	var sharedOrHit atomic.Int64
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			r, err := fx.srv.Plan(context.Background(), "t1", fx.req(6), fx.inv, solverOpt())
			if err != nil {
				t.Error(err)
				return
			}
			if r.Shared || r.CacheHit {
				sharedOrHit.Add(1)
			}
		}()
	}
	close(start)
	wg.Wait()
	if got := fx.calls.Load(); got != 1 {
		t.Fatalf("solves = %d, want 1 (singleflight collapse)", got)
	}
	if got := sharedOrHit.Load(); got != n-1 {
		t.Fatalf("shared/hit followers = %d, want %d", got, n-1)
	}
}

func TestPlanWarmStartReplan(t *testing.T) {
	fx := newFixture(t, 0, Config{})
	ctx := context.Background()

	r1, err := fx.srv.Plan(ctx, "t1", fx.req(6), fx.inv, solverOpt())
	if err != nil {
		t.Fatal(err)
	}
	if r1.Warm {
		t.Fatal("first solve flagged warm")
	}
	// Same family, loosened capacity: the cached assignment stays
	// feasible and seeds the re-plan.
	r2, err := fx.srv.Plan(ctx, "t1", fx.req(7), fx.inv, solverOpt())
	if err != nil {
		t.Fatal(err)
	}
	if r2.CacheHit {
		t.Fatal("different model hit the cache")
	}
	if !r2.Warm {
		t.Fatal("near-identical re-plan did not warm-start")
	}
	warmed := false
	for _, st := range r2.Result.Stats {
		warmed = warmed || st.WarmStart
	}
	if !warmed {
		t.Fatal("no backend reported WarmStart")
	}
}

func TestPlanHeuristicPathSkipsCache(t *testing.T) {
	fx := newFixture(t, 0, Config{})
	ctx := context.Background()
	opt := core.PlanOptions{Policy: engine.ForceHeuristic, Parallelism: 1}
	r1, err := fx.srv.Plan(ctx, "t1", fx.req(6), fx.inv, opt)
	if err != nil {
		t.Fatal(err)
	}
	if r1.CacheHit || r1.Key != "" {
		t.Fatalf("heuristic path: hit=%v key=%q", r1.CacheHit, r1.Key)
	}
	r2, err := fx.srv.Plan(ctx, "t1", fx.req(6), fx.inv, opt)
	if err != nil {
		t.Fatal(err)
	}
	if r2.CacheHit {
		t.Fatal("heuristic path cached")
	}
	if fx.srv.CacheStats().Entries != 0 {
		t.Fatal("heuristic result entered the cache")
	}
}

func TestPlanShedsUnderOverload(t *testing.T) {
	fx := newFixture(t, 50*time.Millisecond, Config{
		Admission: AdmitConfig{Workers: 1, QueueLimit: 2},
	})
	const n = 10
	var wg sync.WaitGroup
	var served, shed atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct capacities defeat cache and singleflight, so every
			// request wants its own solve slot.
			_, err := fx.srv.Plan(context.Background(), "t1", fx.req(4+i), fx.inv, solverOpt())
			var se *ShedError
			switch {
			case err == nil:
				served.Add(1)
			case errors.As(err, &se):
				shed.Add(1)
			default:
				t.Errorf("request %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if shed.Load() == 0 {
		t.Fatal("no requests shed at 5x queue capacity")
	}
	if served.Load() == 0 {
		t.Fatal("no requests served under overload")
	}
	if served.Load()+shed.Load() != n {
		t.Fatalf("served %d + shed %d != %d", served.Load(), shed.Load(), n)
	}
}
