// Package serve (imported as composeserve) is the one home of the rules that
// turn a scoped change into its share of a composed schedule (DESIGN.md
// §16): the fixed-epoch compose intent, scope resolution and delta
// derivation (delta.go), and the composer's Solve — owners, the union plan,
// one dispatch per distinct payload, Served / Unowned attribution — with
// each member's share of the run (solve.go). internal/compose stays the
// algebra and the windowed composer; this package binds it to an inventory,
// a planner and an orchestrator engine. cornetd maps a Service onto HTTP,
// examples/composition drives one directly, and cornet-bench's
// bench-compose, which plans without dispatching, calls Delta and Owners.
package serve

import (
	"context"
	"fmt"
	"time"

	"cornet/internal/compose"
	"cornet/internal/core"
	"cornet/internal/inventory"
	"cornet/internal/obs"
	"cornet/internal/orchestrator"
	"cornet/internal/plan/intent"
	planserve "cornet/internal/plan/serve"
	"cornet/internal/workflow"
)

// Settings are the composition knobs (cornetd's -compose-* flags).
type Settings struct {
	// Strategy names the composition strategy (subtree | node | attribute).
	Strategy string
	// Window is the longest a submission waits for others to merge with.
	Window time.Duration
	// MaxBatch seals a composition generation at this many members even if
	// the remembered cohort is larger (0 = no cap).
	MaxBatch int
	// Conflict is the default on_conflict mode (queue | reject) for
	// submissions that do not choose one.
	Conflict string
	// Slots is the composed schedule's maintenance-window count.
	Slots int
	// Capacity is the per-slot concurrency capacity of the composed plan,
	// and the dispatcher concurrency under Partial parallelism.
	Capacity int
}

// Normalize fills defaults and validates the names.
func (c *Settings) Normalize() error {
	if c.Strategy == "" {
		c.Strategy = "subtree"
	}
	if c.Conflict == "" {
		c.Conflict = "reject"
	}
	if c.Slots <= 0 {
		c.Slots = 4
	}
	if c.Capacity <= 0 {
		c.Capacity = 2
	}
	if _, err := compose.ForName(c.Strategy); err != nil {
		return err
	}
	_, err := compose.ParseConflictMode(c.Conflict)
	return err
}

// epoch anchors the composed schedule's scheduling window. It is a fixed
// instant — not wall time — so the composed intent, and therefore the
// canonical model fingerprint and the per-item signatures deltas are
// derived from, depend only on the submitted scopes. That determinism is
// what makes composed planning order-independent and cache-identical to
// planning the union directly.
const epoch = "2026-01-01 00:00:00"

// NewIntent builds the fixed intent every composed schedule is planned
// under: hourly slots from the epoch, elements scheduled individually (ESA
// common_id), bounded per-slot concurrency per NF type.
func NewIntent(slots, capacity int) *intent.Request {
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
	if err := req.Validate(); err != nil {
		// Static document; a failure here is a programming error.
		panic(err)
	}
	return req
}

// PlanFunc plans one inventory under one intent for a tenant — the
// signature of planserve.Server.Plan, so a composed solve gets the same
// cache, singleflight, and admission treatment as any other plan.
type PlanFunc func(ctx context.Context, tenant string, req *intent.Request,
	inv *inventory.Inventory, opt core.PlanOptions) (*planserve.Response, error)

// Config assembles a Service.
type Config struct {
	Settings
	// Inventory is the fleet scopes resolve against and union scopes are
	// planned over.
	Inventory *inventory.Inventory
	// Plan plans a sealed generation's union scope.
	Plan PlanFunc
	// Engine executes the scheduled changes.
	Engine *orchestrator.Engine
}

// Service composes concurrently submitted scoped changes into single
// schedules. Construct with New; Stop before discarding.
type Service struct {
	cfg      Config
	intent   *intent.Request
	composer *compose.Composer
	payloads payloads
}

// New validates the settings and starts the composer.
func New(cfg Config) (*Service, error) {
	if err := cfg.Normalize(); err != nil {
		return nil, err
	}
	if cfg.Inventory == nil || cfg.Plan == nil || cfg.Engine == nil {
		return nil, fmt.Errorf("compose: Config needs Inventory, Plan and Engine")
	}
	s := &Service{cfg: cfg, intent: NewIntent(cfg.Slots, cfg.Capacity),
		payloads: payloads{pending: map[string]*payload{}}}
	strategy, _ := compose.ForName(cfg.Strategy)
	s.composer = compose.NewComposer(compose.Config{
		Strategy: strategy,
		Window:   cfg.Window,
		MaxBatch: cfg.MaxBatch,
		Solve:    s.solve,
	})
	return s, nil
}

// Intent is the fixed intent composed scopes translate and plan under.
func (s *Service) Intent() *intent.Request { return s.intent }

// Pending reports how many member changes wait in the open generation.
func (s *Service) Pending() int { return s.composer.Pending() }

// Stop seals the open generation and refuses further submissions.
func (s *Service) Stop() { s.composer.Stop() }

// Mode resolves a submission's on_conflict name; "" means the service's
// default disposition.
func (s *Service) Mode(onConflict string) (compose.ConflictMode, error) {
	if onConflict == "" {
		onConflict = s.cfg.Conflict
	}
	return compose.ParseConflictMode(onConflict)
}

// Change is one scoped submission: who asks, what to execute, and where.
type Change struct {
	// ID is the change id the member's executions journal under.
	ID string
	// Tenant is the submitting tenant.
	Tenant string
	// Deployment and Inputs are the executable payload.
	Deployment *workflow.Deployment
	Inputs     map[string]string
	// Scope is the declared network scope.
	Scope Scope
}

// RefusedError is a submission turned away before it joined a generation:
// its scope does not resolve, or its change id is pending with a different
// payload.
type RefusedError struct{ error }

// Submit derives the change's delta, joins it to the open generation, and
// returns this member's share of the composed run once the generation has
// sealed, planned and dispatched. It fails with a *RefusedError before
// joining, a *compose.ConflictError on a conflicting scope,
// compose.ErrStopped on a stopped service, and otherwise with what failed
// the generation (the union plan) or the caller's ctx.
func (s *Service) Submit(ctx context.Context, ch Change, mode compose.ConflictMode) (*Member, error) {
	sig := PayloadSig(ch.Deployment.API, ch.Inputs)
	delta, err := Delta(ch.ID, ch.Tenant, s.intent, s.cfg.Inventory, ch.Scope, sig)
	if err != nil {
		return nil, &RefusedError{err}
	}
	if err := s.payloads.acquire(ch.ID, ch.Deployment, ch.Inputs, sig); err != nil {
		return nil, &RefusedError{err}
	}
	defer s.payloads.release(ch.ID)

	ctx = obs.WithTenant(obs.WithChangeID(ctx, ch.ID), ch.Tenant)
	out, err := s.composer.Submit(ctx, delta, mode)
	if err != nil {
		return nil, err
	}
	return out.Result.(*Run).member(ch.ID, out), nil
}
