// Package events is CORNET's change-lifecycle event journal: a bounded,
// race-safe ring of typed events published by every subsystem a change
// flows through (admission, plan cache, engine backends, orchestrator
// blocks, circuit breakers, verifier, reconciler). One change ID — minted
// at ingress and threaded through contexts (obs.WithChangeID) — keys one
// end-to-end timeline across all of them, which cmd/cornetd serves at
// GET /api/changes/{id}/timeline; the raw journal is queryable with
// filters at GET /api/events and live-streamable via SSE (?follow=1).
//
// The journal is the observability counterpart of the paper's composition
// framework: the plan→execute→verify→rollback loop spans five subsystems,
// and operations teams need the cross-layer view ("what happened to
// change X, everywhere") that per-subsystem metrics cannot give.
package events

import (
	"sync"
	"time"

	"cornet/internal/obs"
)

// Type classifies a lifecycle event.
type Type string

// The event types, grouped by publishing subsystem (the Source field).
const (
	// Serving layer ("serve"): cache provenance of one plan request.
	TypeCacheHit   Type = "plan.cache_hit"
	TypeCacheMiss  Type = "plan.cache_miss"
	TypeWarmStart  Type = "plan.warm_start"
	TypePlanServed Type = "plan.served"

	// Admission control ("admission"): queueing outcomes.
	TypeShed     Type = "admission.shed"
	TypeAdmitted Type = "admission.dequeue"

	// Planning engine ("engine"): backend solves and incumbents.
	TypeBackendDone Type = "plan.backend"
	TypeIncumbent   Type = "plan.incumbent"

	// Orchestrator ("orchestrator"): workflow execution lifecycle.
	TypeWfStart       Type = "wf.start"
	TypeWfEnd         Type = "wf.end"
	TypeBlockRetry    Type = "block.retry"
	TypeFailureAction Type = "block.failure_action"
	TypeRollback      Type = "wf.rollback"
	TypeBreaker       Type = "breaker.transition"

	// Composition ("compose"): concurrent change composition decisions.
	TypeComposeMerged   Type = "compose.merged"
	TypeComposeQueued   Type = "compose.queued"
	TypeComposeRejected Type = "compose.rejected"
	TypeComposeFailed   Type = "compose.failed"

	// Verifier ("verifier"): go/no-go verification reports.
	TypeVerifyReport Type = "verify.report"

	// Reconciler ("reconcile"): drift lifecycle.
	TypeDriftDetected Type = "drift.detected"
	TypeDriftRepaired Type = "drift.repaired"
	TypeChangeFailed  Type = "change.failed"
)

// Event is one journaled lifecycle event. Fields carries the type-specific
// structured payload; publishers must not mutate it after Publish.
type Event struct {
	// Seq is the journal-assigned monotonic sequence number (1-based).
	Seq uint64 `json:"seq"`
	// Time stamps when the event was published.
	Time time.Time `json:"time"`
	// Type classifies the event.
	Type Type `json:"type"`
	// Source names the publishing subsystem (serve, admission, engine,
	// orchestrator, verifier, reconcile).
	Source string `json:"source"`
	// ChangeID keys the event into a change timeline ("" when the event
	// happened outside any tracked change, e.g. a breaker transition).
	ChangeID string `json:"change_id,omitempty"`
	// Tenant attributes the event to the requesting tenant ("" when none).
	Tenant string `json:"tenant,omitempty"`
	// Fields is the type-specific structured payload.
	Fields map[string]any `json:"fields,omitempty"`
}

// Filter selects events in Query and Subscribe. Zero-value fields match
// everything.
type Filter struct {
	// Types restricts to the listed event types.
	Types []Type
	// ChangeID restricts to one change timeline.
	ChangeID string
	// Tenant restricts to one tenant's events.
	Tenant string
	// Source restricts to one publishing subsystem.
	Source string
	// SinceSeq restricts to events with Seq > SinceSeq.
	SinceSeq uint64
	// Limit bounds the result count (0 = unlimited; the ring bounds it
	// anyway).
	Limit int
}

// Match reports whether the filter selects the event (Limit excluded —
// it bounds result sets, not single events).
func (f Filter) Match(e Event) bool {
	if f.ChangeID != "" && e.ChangeID != f.ChangeID {
		return false
	}
	if f.Tenant != "" && e.Tenant != f.Tenant {
		return false
	}
	if f.Source != "" && e.Source != f.Source {
		return false
	}
	if e.Seq <= f.SinceSeq {
		return false
	}
	if len(f.Types) > 0 {
		ok := false
		for _, t := range f.Types {
			if e.Type == t {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// Subscription is one live feed off the journal. Events matching the
// subscription's filter arrive on C; a subscriber that falls behind its
// channel buffer loses events (counted in Dropped) rather than blocking
// publishers. Close to detach.
type Subscription struct {
	// C delivers matching events in publish order.
	C chan Event

	j       *Journal
	id      uint64
	filter  Filter
	mu      sync.Mutex
	dropped int64
	closed  bool
}

// Dropped reports how many matching events were discarded because the
// subscriber's channel buffer was full.
func (s *Subscription) Dropped() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Close detaches the subscription from the journal and closes C.
func (s *Subscription) Close() {
	s.j.mu.Lock()
	delete(s.j.subs, s.id)
	s.j.mu.Unlock()
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.C)
	}
	s.mu.Unlock()
}

// deliver offers an event without blocking; the journal calls it with its
// own lock held, so it must never wait on the subscriber.
func (s *Subscription) deliver(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	select {
	case s.C <- e:
	default:
		s.dropped++
		metricDropped.Inc()
	}
}

// Journal is a bounded, append-only ring of lifecycle events, safe for
// concurrent publishers, readers, and subscribers. When full, the oldest
// events are overwritten — the journal is an operational window, not an
// audit log (the reconciler's revision journal, internal/reconcile, is
// the audit record of the changes it drives).
type Journal struct {
	mu     sync.Mutex
	buf    []Event
	start  int // index of the oldest retained event
	count  int
	next   uint64 // next sequence number to assign (1-based)
	subs   map[uint64]*Subscription
	subSeq uint64
}

// DefaultCapacity is the ring size of the package-level Default journal.
const DefaultCapacity = 4096

// Default is the process-wide journal every subsystem publishes into,
// mirroring obs.Default for metrics.
var Default = NewJournal(DefaultCapacity)

// NewJournal returns an empty journal retaining at most capacity events
// (floored at 16).
func NewJournal(capacity int) *Journal {
	if capacity < 16 {
		capacity = 16
	}
	return &Journal{
		buf:  make([]Event, capacity),
		next: 1,
		subs: map[uint64]*Subscription{},
	}
}

// Publish appends one event, assigning its sequence number and (when
// unset) timestamp, and fans it out to matching subscribers without
// blocking. It returns the stored event.
func (j *Journal) Publish(e Event) Event {
	j.mu.Lock()
	e.Seq = j.next
	j.next++
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	idx := (j.start + j.count) % len(j.buf)
	if j.count == len(j.buf) {
		j.start = (j.start + 1) % len(j.buf) // overwrite the oldest
	} else {
		j.count++
	}
	j.buf[idx] = e
	for _, sub := range j.subs {
		if sub.filter.Match(e) {
			sub.deliver(e)
		}
	}
	j.mu.Unlock()
	metricPublished.With(string(e.Type)).Inc()
	return e
}

// Query returns the retained events matching the filter, oldest first.
func (j *Journal) Query(f Filter) []Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	var out []Event
	for i := 0; i < j.count; i++ {
		e := j.buf[(j.start+i)%len(j.buf)]
		if !f.Match(e) {
			continue
		}
		out = append(out, e)
		if f.Limit > 0 && len(out) >= f.Limit {
			break
		}
	}
	return out
}

// LastSeq reports the sequence number of the most recently published
// event (0 when none).
func (j *Journal) LastSeq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.next - 1
}

// Subscribe attaches a live feed of events matching the filter, buffering
// up to buffer events (floored at 1) before dropping.
func (j *Journal) Subscribe(f Filter, buffer int) *Subscription {
	_, sub := j.watch(f, buffer, false)
	return sub
}

// Watch atomically snapshots the retained events matching the filter and
// attaches a subscription for everything after them, so a caller replaying
// the backlog before streaming the feed sees no gap and no duplicate.
func (j *Journal) Watch(f Filter, buffer int) ([]Event, *Subscription) {
	return j.watch(f, buffer, true)
}

func (j *Journal) watch(f Filter, buffer int, backlog bool) ([]Event, *Subscription) {
	if buffer < 1 {
		buffer = 1
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	var past []Event
	if backlog {
		for i := 0; i < j.count; i++ {
			e := j.buf[(j.start+i)%len(j.buf)]
			if f.Match(e) {
				past = append(past, e)
				if f.Limit > 0 && len(past) >= f.Limit {
					break
				}
			}
		}
	}
	j.subSeq++
	sub := &Subscription{
		C:  make(chan Event, buffer),
		j:  j,
		id: j.subSeq,
		filter: Filter{Types: f.Types, ChangeID: f.ChangeID, Tenant: f.Tenant,
			Source: f.Source, SinceSeq: j.next - 1},
	}
	j.subs[sub.id] = sub
	return past, sub
}

// Journal metrics, registered in the process-wide obs registry.
var (
	metricPublished = obs.Default.CounterVec("cornet_events_published_total",
		"Lifecycle events published into the event journal, by type.", "type")
	metricDropped = obs.Default.Counter("cornet_events_dropped_total",
		"Events dropped because a subscriber's buffer was full.")
)
