// Package serve is the multi-tenant planning service in front of the
// planner's backends: a canonical plan cache keyed by the translated model's
// order-independent fingerprint, a request-key memo in front of it so a
// repeated request finds that fingerprint without translating again,
// singleflight collapse of concurrent identical requests, warm-start
// seeding of near-identical re-plans, and tenant-fair admission control
// with load shedding. It exists because the paper's workload is
// repetitive — operations teams resubmit the same or slightly-edited
// change plans many times while iterating — so the serving layer can
// answer most requests without paying a cold solve.
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"time"

	"cornet/internal/core"
	"cornet/internal/inventory"
	"cornet/internal/obs"
	"cornet/internal/obs/events"
	"cornet/internal/obs/tenants"
	"cornet/internal/plan/cache"
	"cornet/internal/plan/intent"
	"cornet/internal/plan/model"
)

// Config tunes a Server.
type Config struct {
	// CacheSize bounds the plan cache (entries; default 512, <0 disables).
	CacheSize int
	// CacheTTL expires cached plans (default 10m, <0 never expires).
	CacheTTL time.Duration
	// WarmDelta is the largest item-level delta (changed + added + removed
	// items) against a cached model that still warm-starts the solve
	// (default 8; <0 disables warm starts).
	WarmDelta int
	// WarmScan bounds how many recent same-family cache entries are
	// examined for a warm-start seed (default 32).
	WarmScan int
	// Admission tunes the admission controller.
	Admission AdmitConfig
}

func (c Config) withDefaults() Config {
	if c.CacheSize == 0 {
		c.CacheSize = 512
	}
	if c.CacheTTL == 0 {
		c.CacheTTL = 10 * time.Minute
	}
	if c.WarmDelta == 0 {
		c.WarmDelta = 8
	}
	if c.WarmScan <= 0 {
		c.WarmScan = 32
	}
	return c
}

// Response is one served plan plus its serving-path provenance.
type Response struct {
	// Result is the plan. Cache hits share one Result across responses:
	// treat it as immutable.
	Result *core.PlanResult
	// CacheHit reports the plan came from the cache without solving.
	CacheHit bool
	// Shared reports this request rode another identical in-flight solve
	// (singleflight follower).
	Shared bool
	// Warm reports the solve was seeded with a cached incumbent.
	Warm bool
	// Key is the canonical cache key (model fingerprint + policy); empty
	// on the heuristic-only path, which has no canonical model.
	Key string
	// Wait is the time spent queued in admission (zero for cache hits).
	Wait time.Duration
}

// Server serves plan requests through cache, singleflight, warm-start,
// and admission. Construct with New; Stop before discarding.
type Server struct {
	f     *core.Framework
	cache *cache.Cache
	// l1 memoises request key -> plan-cache key (see requestKey), so a
	// repeated request reaches the plan cache without translating and
	// fingerprinting again. It holds no plans and has no TTL: an entry
	// whose plan expired or was evicted just falls through to the build.
	l1        *cache.Cache
	flight    cache.Flight
	adm       *Admitter
	warmDelta int
	warmScan  int
}

// New builds the serving layer around a framework.
func New(f *core.Framework, cfg Config) *Server {
	cfg = cfg.withDefaults()
	c := cache.New(cfg.CacheSize, cfg.CacheTTL)
	c.SetOnEvict(func(cache.Entry) { metricCacheEvictions.Inc() })
	return &Server{
		f:         f,
		cache:     c,
		l1:        cache.New(cfg.CacheSize, 0),
		adm:       NewAdmitter(cfg.Admission),
		warmDelta: cfg.WarmDelta,
		warmScan:  cfg.WarmScan,
	}
}

// Admitter exposes the admission controller (tests, queue-depth probes).
func (s *Server) Admitter() *Admitter { return s.adm }

// CacheStats returns a snapshot of the plan cache counters.
func (s *Server) CacheStats() cache.Stats { return s.cache.Stats() }

// Stop shuts the admission workers down and fails queued requests.
func (s *Server) Stop() { s.adm.Stop() }

// outcome is the singleflight payload: the leader's result plus the
// serving metadata followers inherit.
type outcome struct {
	res  *core.PlanResult
	warm bool
	wait time.Duration
}

// requestKey hashes everything the plan-cache key is a pure function of:
// the intent's content (its canonical JSON, so editing a parsed Request
// changes the key), the inventory's stamp, and every PlanOptions field
// BuildPlanRequest reads — the policy folded with the inventory size into
// the resolved policy, RequireAll, the topology's stamp, and the
// heuristic's seed and parallelism. RenderModel and Warm are read by
// RunPlan only. It returns "" for a request with no canonical JSON, which
// then takes the build path every time.
func (s *Server) requestKey(req *intent.Request, inv *inventory.Inventory, opt core.PlanOptions) string {
	buf, err := json.Marshal(req)
	if err != nil {
		return ""
	}
	invID, invVersion := inv.Stamp()
	var topoID, topoVersion uint64
	if opt.Topology != nil {
		topoID, topoVersion = opt.Topology.Stamp()
	}
	var requireAll uint64
	if opt.RequireAll {
		requireAll = 1
	}
	// The document is self-delimiting and the numbers fixed-width, so the
	// variable-length policy can close the record without a separator.
	for _, v := range [...]uint64{
		invID, invVersion, topoID, topoVersion, requireAll,
		uint64(opt.Seed), uint64(opt.Parallelism),
	} {
		buf = binary.LittleEndian.AppendUint64(buf, v)
	}
	buf = append(buf, s.f.ResolvePolicy(opt, inv.Len())...)
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// Plan serves one plan request for a tenant. Identical requests (same
// canonical model, same policy) hit the cache or share an in-flight
// solve; near-identical ones seed the solver with the best cached
// incumbent; everything that actually solves goes through tenant-fair
// admission. A request seen before (same intent content, inventory and
// topology state, and build options) finds its cache key in the L1 and
// skips translation and fingerprinting; any other pays them once and
// records the key. Heuristic-only requests (no constraint model) skip the
// cache — the local search is not canonically keyed — but still queue
// through admission.
func (s *Server) Plan(ctx context.Context, tenant string, req *intent.Request, inv *inventory.Inventory, opt core.PlanOptions) (*Response, error) {
	ctx = obs.WithTenant(ctx, tenant)
	start := time.Now()

	_, sp := obs.StartSpan(ctx, "plan.lookup")
	rkey := s.requestKey(req, inv, opt)
	// l1Key is the cache key the L1 named, which the lookup below tries;
	// the build path does not try it a second time.
	l1Key := ""
	if e, ok := s.l1.Get(rkey); ok {
		l1Key = e.Value.(string)
	}
	sp.SetAttr("l1_hit", l1Key != "")
	resp := s.lookup(ctx, tenant, l1Key, start)
	sp.SetAttr("cache_hit", resp != nil)
	sp.End()
	if resp != nil {
		return resp, nil
	}

	b, err := s.f.BuildPlanRequest(ctx, req, inv, opt)
	if err != nil {
		return nil, err
	}
	if b.Req.Model == nil {
		res, wait, err := s.solve(ctx, tenant, b, opt)
		if err != nil {
			return nil, err
		}
		resp := &Response{Result: res, Wait: wait}
		s.served(ctx, tenant, resp, time.Since(start), true)
		return resp, nil
	}

	key := b.Req.Model.Fingerprint() + "|" + string(b.Policy)
	if key != l1Key {
		if rkey != "" {
			s.l1.Put(cache.Entry{Key: rkey, Value: key})
		}
		if resp := s.lookup(ctx, tenant, key, start); resp != nil {
			return resp, nil
		}
	}
	metricCacheMisses.Inc()
	events.Default.Publish(events.Event{
		Type: events.TypeCacheMiss, Source: "serve",
		ChangeID: obs.ChangeID(ctx), Tenant: tenant,
		Fields: map[string]any{"key": key},
	})

	v, shared, err := s.flight.Do(ctx, key, func() (any, error) {
		ropt := opt
		// One signature pass serves both the warm-seed scan and the
		// entry this solve will cache.
		sigs := b.Req.Model.ItemSignatures()
		ropt.Warm = s.warmSeed(b.Req.Model, sigs, key)
		res, wait, err := s.solve(ctx, tenant, b, ropt)
		if err != nil {
			return nil, err
		}
		// A seed counts once the solver took it: one it dropped as
		// infeasible, or whose solve was shed, warm-started nothing.
		warm := ropt.Warm != nil && warmApplied(res)
		if warm {
			metricWarmStarts.Inc()
			events.Default.Publish(events.Event{
				Type: events.TypeWarmStart, Source: "serve",
				ChangeID: obs.ChangeID(ctx), Tenant: tenant,
				Fields: map[string]any{"key": key, "seed_items": len(ropt.Warm)},
			})
		}
		s.cache.Put(entryFor(key, b.Req.Model, sigs, res))
		metricCacheEntries.Set(float64(s.cache.Len()))
		return &outcome{res: res, warm: warm, wait: wait}, nil
	})
	if err != nil {
		return nil, err
	}
	if shared {
		metricShared.Inc()
	}
	o := v.(*outcome)
	resp = &Response{Result: o.res, Shared: shared, Warm: o.warm, Key: key, Wait: o.wait}
	// Solve cost is attributed once, to the singleflight leader; followers
	// rode the same solve for free.
	s.served(ctx, tenant, resp, time.Since(start), !shared)
	return resp, nil
}

// lookup answers from the plan cache: when key is resident it counts the
// hit, publishes cache.hit and plan.served, charges the tenant's account
// and returns the shared plan; otherwise (and for the empty key of an L1
// miss) it returns nil and emits nothing. Both lookups of Plan — by the
// memoised key, and by the freshly fingerprinted one — go through here,
// so a hit is recorded once and identically whichever found it.
func (s *Server) lookup(ctx context.Context, tenant, key string, start time.Time) *Response {
	if key == "" {
		return nil
	}
	e, ok := s.cache.Get(key)
	if !ok {
		return nil
	}
	metricCacheHits.Inc()
	events.Default.Publish(events.Event{
		Type: events.TypeCacheHit, Source: "serve",
		ChangeID: obs.ChangeID(ctx), Tenant: tenant,
		Fields: map[string]any{"key": key},
	})
	resp := &Response{Result: e.Value.(*core.PlanResult), CacheHit: true, Key: key}
	s.served(ctx, tenant, resp, time.Since(start), true)
	return resp
}

// served publishes the plan.served journal event and attributes the
// request to the tenant's account. leader reports whether this request
// paid for the solve (false for singleflight followers).
func (s *Server) served(ctx context.Context, tenant string, resp *Response, elapsed time.Duration, leader bool) {
	var solveWall time.Duration
	var nodes int64
	if leader && !resp.CacheHit && resp.Result != nil {
		for _, st := range resp.Result.Stats {
			if st.Winner {
				solveWall = st.Wall
			}
			nodes += st.Nodes
		}
	}
	method := ""
	if resp.Result != nil {
		method = resp.Result.Method
	}
	events.Default.Publish(events.Event{
		Type: events.TypePlanServed, Source: "serve",
		ChangeID: obs.ChangeID(ctx), Tenant: tenant,
		Fields: map[string]any{
			"wall_ns":  elapsed.Nanoseconds(),
			"wait_ns":  resp.Wait.Nanoseconds(),
			"solve_ns": solveWall.Nanoseconds(),
			"nodes":    nodes,
			"method":   method,
			"cache":    resp.CacheHit,
			"warm":     resp.Warm,
			"shared":   resp.Shared,
		},
	})
	tenants.Default.RecordPlan(tenant, resp.CacheHit, resp.Warm, resp.Wait, solveWall, nodes)
}

// solve runs the built request through admission onto its backend.
func (s *Server) solve(ctx context.Context, tenant string, b *core.PlanBuild, opt core.PlanOptions) (*core.PlanResult, time.Duration, error) {
	var res *core.PlanResult
	var rerr error
	wait, err := s.adm.Submit(ctx, tenant, func() {
		res, rerr = s.f.RunPlan(ctx, b, opt)
	})
	if err != nil {
		return nil, wait, err
	}
	return res, wait, rerr
}

// warmSeed scans recent same-family cache entries, most recent first, for
// the closest model (by per-item signature delta against sigs) within
// WarmDelta and returns its solved assignment as the solver seed, or nil
// when nothing is close enough. A tie goes to the more recent entry, so a
// candidate is dropped as soon as its delta reaches the best so far and
// the scan ends at the first identical one.
func (s *Server) warmSeed(m *model.Model, sigs map[string]uint64, selfKey string) map[string]int {
	if s.warmDelta < 0 {
		return nil
	}
	var best map[string]int
	bestDelta := s.warmDelta + 1
	for _, c := range s.cache.Recent(m.FamilyKey(), s.warmScan) {
		if c.Key == selfKey || len(c.ItemSlots) == 0 {
			continue
		}
		// delta = changed + added + removed. The candidate's removed items
		// are the ones not matched by sigs, len(c.ItemSigs) - (len(sigs) -
		// added), so every added item counts twice over that base and one
		// pass over sigs sizes all three.
		delta := len(c.ItemSigs) - len(sigs)
		for id, sig := range sigs {
			if delta >= bestDelta {
				break
			}
			if old, ok := c.ItemSigs[id]; !ok {
				delta += 2
			} else if old != sig {
				delta++
			}
		}
		if delta < bestDelta {
			bestDelta, best = delta, c.ItemSlots
			if delta == 0 {
				break
			}
		}
	}
	return best
}

// entryFor converts a solved result into its cache entry, recording the
// assignment (leftovers as -1) and the model's item signatures as the
// warm-start seed for future near-identical models.
func entryFor(key string, m *model.Model, sigs map[string]uint64, res *core.PlanResult) cache.Entry {
	slots := make(map[string]int, len(res.Assignment)+len(res.Leftovers))
	for id, t := range res.Assignment {
		slots[id] = t
	}
	for _, id := range res.Leftovers {
		slots[id] = -1
	}
	e := cache.Entry{
		Key:       key,
		Family:    m.FamilyKey(),
		Value:     res,
		ItemSlots: slots,
		ItemSigs:  sigs,
	}
	for _, st := range res.Stats {
		if st.Winner {
			e.Objective = st.Objective
		}
	}
	return e
}

// warmApplied reports whether any backend actually used the seed (an
// infeasible seed is silently dropped by the solver).
func warmApplied(res *core.PlanResult) bool {
	for _, st := range res.Stats {
		if st.WarmStart {
			return true
		}
	}
	return false
}
