package resilience

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// State is a circuit breaker's position.
type State string

// Breaker states: Closed admits traffic, Open rejects it outright, and
// HalfOpen admits a bounded number of probes after the cooldown to test
// whether the backing API recovered.
const (
	Closed   State = "closed"
	Open     State = "open"
	HalfOpen State = "half-open"
)

// ErrBreakerOpen is returned (wrapped) by BreakerSet.Allow when the
// breaker for an API is open: the block fails fast instead of burning its
// retry budget against a dead endpoint.
var ErrBreakerOpen = errors.New("resilience: circuit breaker open")

// BreakerConfig tunes every breaker in a set. The zero value is usable:
// Defaults fill in a 5-failure threshold, 30s cooldown, and one half-open
// probe.
type BreakerConfig struct {
	// Threshold is the count of consecutive failures that trips a closed
	// breaker open. Failures are counted across workflow executions —
	// the breaker protects the building-block API, not one run.
	Threshold int `json:"threshold,omitempty"`
	// Cooldown is how long an open breaker rejects before transitioning
	// to half-open.
	Cooldown Duration `json:"cooldown,omitempty"`
	// Probes is the number of consecutive half-open successes required
	// to close again. Any half-open failure re-opens immediately.
	Probes int `json:"probes,omitempty"`
}

// withDefaults normalizes zero fields to the documented defaults.
func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Threshold < 1 {
		c.Threshold = 5
	}
	if c.Cooldown <= 0 {
		c.Cooldown = Duration(30 * time.Second)
	}
	if c.Probes < 1 {
		c.Probes = 1
	}
	return c
}

// breaker is the per-API state machine.
type breaker struct {
	state     State
	failures  int       // consecutive failures while closed
	successes int       // consecutive successes while half-open
	inflight  int       // admitted half-open probes not yet recorded
	openedAt  time.Time // when the breaker last tripped
}

// BreakerSet is a collection of circuit breakers keyed by building-block
// API location. One set is shared by every workflow execution of an
// engine, so N consecutive failures of the same NF endpoint across
// different workflows trip the breaker for all of them. All methods are
// safe for concurrent use.
type BreakerSet struct {
	cfg BreakerConfig
	// Clock abstracts time for tests; defaults to time.Now.
	Clock func() time.Time
	// OnTransition, if set, observes every state change — the
	// orchestrator hangs trip/close metrics and span events here. Called
	// without internal locks held.
	OnTransition func(api string, from, to State)

	mu sync.Mutex
	m  map[string]*breaker
}

// NewBreakerSet builds a set with the given (default-filled) config.
func NewBreakerSet(cfg BreakerConfig) *BreakerSet {
	return &BreakerSet{cfg: cfg.withDefaults(), Clock: time.Now, m: map[string]*breaker{}}
}

// get returns (creating if needed) the breaker for api. Caller holds mu.
func (s *BreakerSet) get(api string) *breaker {
	b, ok := s.m[api]
	if !ok {
		b = &breaker{state: Closed}
		s.m[api] = b
	}
	return b
}

// Allow reports whether an invocation of api may proceed. In the open
// state it returns ErrBreakerOpen (wrapped with the API and the remaining
// cooldown); once the cooldown elapses it admits up to Probes concurrent
// probe invocations in the half-open state.
func (s *BreakerSet) Allow(api string) error {
	var trans func()
	s.mu.Lock()
	b := s.get(api)
	now := s.clock()
	switch b.state {
	case Closed:
		s.mu.Unlock()
		return nil
	case Open:
		wait := b.openedAt.Add(s.cfg.Cooldown.Std()).Sub(now)
		if wait > 0 {
			s.mu.Unlock()
			return fmt.Errorf("%w: %s retries in %v", ErrBreakerOpen, api, wait.Round(time.Millisecond))
		}
		trans = s.transition(api, b, HalfOpen)
		b.successes = 0
		b.inflight = 1
		s.mu.Unlock()
		if trans != nil {
			trans()
		}
		return nil
	case HalfOpen:
		if b.inflight >= s.cfg.Probes {
			s.mu.Unlock()
			return fmt.Errorf("%w: %s half-open, probe in flight", ErrBreakerOpen, api)
		}
		b.inflight++
		s.mu.Unlock()
		return nil
	}
	s.mu.Unlock()
	return nil
}

// Record feeds an invocation outcome back into the breaker for api.
// Outcomes of invocations rejected by Allow must not be recorded.
func (s *BreakerSet) Record(api string, success bool) {
	var trans func()
	s.mu.Lock()
	b := s.get(api)
	switch b.state {
	case Closed:
		if success {
			b.failures = 0
		} else if b.failures++; b.failures >= s.cfg.Threshold {
			trans = s.transition(api, b, Open)
			b.openedAt = s.clock()
			b.failures = 0
		}
	case HalfOpen:
		if b.inflight > 0 {
			b.inflight--
		}
		if !success {
			trans = s.transition(api, b, Open)
			b.openedAt = s.clock()
			b.successes = 0
		} else if b.successes++; b.successes >= s.cfg.Probes {
			trans = s.transition(api, b, Closed)
			b.failures = 0
		}
	case Open:
		// A straggler finishing after the trip; consecutive-failure
		// bookkeeping restarts when the breaker half-opens.
	}
	s.mu.Unlock()
	if trans != nil {
		trans()
	}
}

// transition flips b to the target state and returns the deferred
// OnTransition callback (nil when unobserved). Caller holds mu.
func (s *BreakerSet) transition(api string, b *breaker, to State) func() {
	from := b.state
	b.state = to
	if s.OnTransition == nil || from == to {
		return nil
	}
	cb := s.OnTransition
	return func() { cb(api, from, to) }
}

// Reset force-closes the breaker for api (operator override after a
// confirmed repair).
func (s *BreakerSet) Reset(api string) {
	var trans func()
	s.mu.Lock()
	if b, ok := s.m[api]; ok && b.state != Closed {
		trans = s.transition(api, b, Closed)
		b.failures, b.successes, b.inflight = 0, 0, 0
	}
	s.mu.Unlock()
	if trans != nil {
		trans()
	}
}

// clock returns the set's time source, defaulting to time.Now.
func (s *BreakerSet) clock() time.Time {
	if s.Clock != nil {
		return s.Clock()
	}
	return time.Now()
}
