package compose

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"cornet/internal/obs"
)

// ConflictMode is what a submission wants done when its delta conflicts
// with the changes already gathered in the open composition window.
type ConflictMode string

// The conflict modes.
const (
	// Queue waits for the conflicting generation to complete and then
	// resubmits, up to Config.MaxRequeue times.
	Queue ConflictMode = "queue"
	// Reject fails the submission immediately with a *ConflictError.
	Reject ConflictMode = "reject"
)

// ParseConflictMode resolves a conflict-mode name; "" means Reject (the
// conservative default — never hold a submission without being asked).
func ParseConflictMode(s string) (ConflictMode, error) {
	switch ConflictMode(s) {
	case "":
		return Reject, nil
	case Queue, Reject:
		return ConflictMode(s), nil
	}
	return "", fmt.Errorf("compose: unknown conflict mode %q (want queue or reject)", s)
}

// ErrStopped is returned by Submit after Stop.
var ErrStopped = errors.New("compose: composer stopped")

// DefaultWindow is the composition window used when Config.Window is
// unset (and cornetd's -compose-window default): the longest the first
// submission of a generation waits for others to arrive before the batch
// seals and solves.
const DefaultWindow = 150 * time.Millisecond

// SealReason says what closed a generation.
type SealReason string

// The seal reasons.
const (
	// SealWindow: the window timer fired — nobody the composer expected
	// completed the batch in time, or it expected nobody.
	SealWindow SealReason = "window"
	// SealBatch: the generation reached Config.MaxBatch members.
	SealBatch SealReason = "batch"
	// SealCohort: a join made the generation cover every footprint of the
	// previous non-empty generation, so everyone known to compose is in.
	SealCohort SealReason = "cohort"
	// SealStop: Composer.Stop drained the open generation.
	SealStop SealReason = "stop"
)

// Config parameterizes a Composer.
type Config struct {
	// Strategy validates and merges concurrent deltas (required).
	Strategy Strategy
	// Window is the longest a generation stays open after its first
	// submission (<= 0 means DefaultWindow); a generation that covers the
	// previous one's cohort seals sooner, at that join.
	Window time.Duration
	// MaxBatch seals a generation early once it has gathered this many
	// member changes, even if the remembered cohort is larger (<= 0 means
	// unbounded — the cohort rule or the window seals).
	MaxBatch int
	// MaxRequeue bounds how many times a Queue-mode submission retries
	// behind conflicting generations before failing (<= 0 means 1).
	MaxRequeue int
	// Solve turns the sealed generation's composed delta into a result —
	// typically plan + dispatch. All member submissions share the one
	// result. ctx carries the composed change id (obs.ChangeID). nil Solve
	// composes without solving (Outcome.Result stays nil).
	Solve func(ctx context.Context, composed *Delta, members []*Delta) (any, error)
	// NewID mints composed change ids (nil means "cmp-" + random).
	NewID func() string
}

// Outcome is what every member submission of a sealed generation
// receives: the composed identity, the full member list, and the shared
// solve result.
type Outcome struct {
	// ComposedID is the composed change's id (the id the single schedule
	// was solved under).
	ComposedID string `json:"composed_id"`
	// Members lists the constituent change ids, sorted.
	Members []string `json:"members"`
	// Strategy names the strategy that merged the members.
	Strategy string `json:"strategy"`
	// Parallelism is the strategy's execution promise for the composed
	// constituents.
	Parallelism Parallelism `json:"parallelism"`
	// Seal says what closed the generation.
	Seal SealReason `json:"seal"`
	// Waited is how long the generation stayed open — the wait of its first
	// member, the longest any member waited for the others.
	Waited time.Duration `json:"-"`
	// Delta is the composed delta (the ⊕ of the member deltas).
	Delta *Delta `json:"-"`
	// Result is what Config.Solve returned (nil without a Solve).
	Result any `json:"-"`
}

// generation is one composition window: the deltas gathered so far and
// the completion broadcast every member waits on. waiters counts the
// Submit calls currently waiting per member change id (idempotent
// resubmissions share one delta but wait separately), so a canceled
// member can withdraw its delta without evicting a still-waiting twin.
// footprints counts the member deltas per footprint: what the cohort rule
// compares against the previous generation's.
type generation struct {
	id         string
	opened     time.Time
	deltas     []*Delta
	footprints map[uint64]int
	waiters    map[string]int
	stopTimer  func() bool
	sealed     bool
	done       chan struct{}
	out        *Outcome
	err        error
}

// Composer batches concurrently submitted deltas into composed changes.
// The first submission opens a generation and starts the window timer;
// later submissions whose deltas validate against the gathered set join
// it (greedy validate-on-join, so a generation is conflict-free by
// construction); when the window elapses — or MaxBatch is reached, or a
// join brings in the last footprint of the previous generation's cohort —
// the generation seals, merges, and solves once, and every member receives
// the shared Outcome. Conflicting submissions queue behind the
// generation they collided with or are rejected with the diagnosis,
// per their ConflictMode.
type Composer struct {
	cfg Config
	// afterFunc arms the window timer and returns its stop function
	// (time.AfterFunc; tests substitute a fake clock).
	afterFunc func(d time.Duration, f func()) (stop func() bool)

	mu  sync.Mutex
	cur *generation
	// cohort is the footprint set of the last non-empty sealed generation
	// (nil until one seals): who composed together last time. It is that
	// generation's own map, frozen once sealed.
	cohort  map[uint64]int
	stopped bool
}

// NewComposer returns a Composer using the given config; it panics when
// cfg.Strategy is nil.
func NewComposer(cfg Config) *Composer {
	if cfg.Strategy == nil {
		panic("compose: NewComposer requires a Strategy")
	}
	if cfg.Window <= 0 {
		cfg.Window = DefaultWindow
	}
	if cfg.MaxRequeue <= 0 {
		cfg.MaxRequeue = 1
	}
	if cfg.NewID == nil {
		cfg.NewID = func() string {
			return "cmp-" + strings.TrimPrefix(obs.NewChangeID(), "chg-")
		}
	}
	return &Composer{cfg: cfg, afterFunc: func(d time.Duration, f func()) func() bool {
		return time.AfterFunc(d, f).Stop
	}}
}

// Strategy exposes the composer's configured strategy.
func (c *Composer) Strategy() Strategy { return c.cfg.Strategy }

// Pending reports how many member changes the open (unsealed) generation
// has gathered — 0 when no window is open. Callers can use it to observe
// an in-flight batch (tests synchronize on it).
func (c *Composer) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cur == nil {
		return 0
	}
	return len(c.cur.deltas)
}

// Submit offers one change's delta for composition and blocks until the
// generation it joined completes (or ctx is done). A delta that conflicts
// with the open generation is handled per mode: Reject fails immediately
// with a *ConflictError carrying the Diagnosis; Queue waits for the
// conflicting generation to complete and retries, failing with the
// *ConflictError after MaxRequeue unsuccessful retries. Resubmitting the
// same change id with an equal delta joins its pending generation
// idempotently; the same id with a different footprint is an error.
func (c *Composer) Submit(ctx context.Context, d *Delta, mode ConflictMode) (*Outcome, error) {
	if d == nil || d.ChangeID == "" {
		return nil, errors.New("compose: Submit requires a delta with a change id")
	}
	if mode == "" {
		mode = Reject
	}
	d = (&Delta{ChangeID: d.ChangeID, Tenant: d.Tenant, Ops: append([]Op(nil), d.Ops...)}).Canon()
	requeued := 0
	for {
		g, diag, err := c.join(d)
		if err != nil {
			return nil, err
		}
		if diag == nil {
			select {
			case <-g.done:
				if g.err != nil {
					return nil, g.err
				}
				return g.out, nil
			case <-ctx.Done():
				// The caller is gone and will release whatever resources
				// (payloads) the solve would have needed, so take the delta
				// back out of the still-open generation rather than letting
				// an orphaned member be planned but never executed.
				c.withdraw(g, d.ChangeID)
				return nil, ctx.Err()
			}
		}
		if mode == Reject || requeued >= c.cfg.MaxRequeue {
			cerr := &ConflictError{ChangeID: d.ChangeID, Diagnosis: diag, Requeued: requeued}
			publishRejected(c.cfg.Strategy, d, diag, requeued)
			return nil, cerr
		}
		requeued++
		publishQueued(c.cfg.Strategy, d, diag, requeued)
		select {
		case <-g.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// join adds the delta to the open generation when it validates, returning
// the generation it joined, and seals that generation when this join
// completes it: MaxBatch members, or every footprint of the remembered
// cohort present. On conflict it returns the open generation (the one to
// queue behind) plus the diagnosis, without joining.
func (c *Composer) join(d *Delta) (*generation, *Diagnosis, error) {
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return nil, nil, ErrStopped
	}
	if c.cur == nil {
		g := &generation{id: c.cfg.NewID(), opened: time.Now(), done: make(chan struct{}),
			waiters:    map[string]int{d.ChangeID: 1},
			footprints: map[uint64]int{d.footprint(): 1}}
		g.deltas = []*Delta{d}
		g.stopTimer = c.afterFunc(c.cfg.Window, func() { c.seal(g, SealWindow) })
		c.cur = g
		alone := c.covers(g)
		c.mu.Unlock()
		if alone {
			c.seal(g, SealCohort)
		}
		return g, nil, nil
	}
	g := c.cur
	for _, m := range g.deltas {
		if m.ChangeID != d.ChangeID {
			continue
		}
		if m.Equal(d) { // idempotent resubmission
			g.waiters[d.ChangeID]++
			c.mu.Unlock()
			return g, nil, nil
		}
		c.mu.Unlock()
		return nil, nil, fmt.Errorf("compose: change %s already pending with a different delta", d.ChangeID)
	}
	cand := append(append([]*Delta(nil), g.deltas...), d)
	if diag := c.cfg.Strategy.Validate(cand); diag != nil {
		c.mu.Unlock()
		return g, diag, nil
	}
	g.deltas = cand
	g.waiters[d.ChangeID]++
	g.footprints[d.footprint()]++
	var reason SealReason
	switch {
	case c.cfg.MaxBatch > 0 && len(g.deltas) >= c.cfg.MaxBatch:
		reason = SealBatch
	case c.covers(g):
		reason = SealCohort
	}
	c.mu.Unlock()
	if reason != "" {
		c.seal(g, reason)
	}
	return g, nil, nil
}

// covers reports whether the open generation holds every footprint of the
// remembered cohort — everyone who composed together last time is back, so
// waiting out the window would be waiting for nobody. A composer that has
// sealed nothing yet remembers nobody and never covers. Called with c.mu
// held.
func (c *Composer) covers(g *generation) bool {
	if len(c.cohort) == 0 || len(g.footprints) < len(c.cohort) {
		return false
	}
	for fp := range c.cohort {
		if g.footprints[fp] == 0 {
			return false
		}
	}
	return true
}

// withdraw removes a canceled member's delta from its generation while
// the window is still open, so a sealed composition only contains changes
// whose submitters are still waiting for the outcome. Once the generation
// is sealed the membership is frozen (the merge is already underway) and
// withdraw is a no-op. A member with other Submit calls still waiting
// (idempotent resubmission) keeps its delta until the last waiter leaves.
func (c *Composer) withdraw(g *generation, changeID string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if g.sealed {
		return
	}
	if g.waiters[changeID]--; g.waiters[changeID] > 0 {
		return
	}
	delete(g.waiters, changeID)
	for i, m := range g.deltas {
		if m.ChangeID == changeID {
			g.deltas = append(g.deltas[:i], g.deltas[i+1:]...)
			fp := m.footprint()
			if g.footprints[fp]--; g.footprints[fp] == 0 {
				delete(g.footprints, fp)
			}
			break
		}
	}
}

// seal closes a generation exactly once: it composes the member deltas,
// runs Solve, journals the merge decision, and broadcasts the shared
// outcome by closing g.done. Idempotent — the window timer, a submitter
// whose join completed the batch or the cohort, and Stop may race to call
// it; the first caller's reason is the one recorded. A non-empty
// generation becomes the cohort the next one is measured against.
func (c *Composer) seal(g *generation, reason SealReason) {
	c.mu.Lock()
	if g.sealed {
		c.mu.Unlock()
		return
	}
	g.sealed = true
	if c.cur == g {
		c.cur = nil
	}
	g.stopTimer()
	waited := time.Since(g.opened)
	members := append([]*Delta(nil), g.deltas...)
	if len(members) > 0 {
		c.cohort = g.footprints
	}
	c.mu.Unlock()

	defer close(g.done)
	if len(members) == 0 {
		// Every member withdrew (canceled) before the window closed;
		// there is nothing to merge and nobody waiting.
		return
	}
	composed, err := c.cfg.Strategy.Compose(g.id, members)
	if err != nil {
		// Unreachable by construction (members validated on join), but a
		// strategy is free to be stricter at compose time.
		g.err = err
		return
	}
	out := &Outcome{
		ComposedID:  g.id,
		Strategy:    c.cfg.Strategy.Name(),
		Parallelism: c.cfg.Strategy.Parallelism(),
		Seal:        reason,
		Waited:      waited,
		Delta:       composed,
	}
	observeSeal(out)
	for _, m := range members {
		out.Members = append(out.Members, m.ChangeID)
	}
	sort.Strings(out.Members)
	if c.cfg.Solve != nil {
		ctx := obs.WithChangeID(context.Background(), g.id)
		if composed.Tenant != "" {
			ctx = obs.WithTenant(ctx, composed.Tenant)
		}
		out.Result, g.err = c.cfg.Solve(ctx, composed, members)
		if g.err != nil {
			// The generation produced no schedule: journal the failure, not
			// a merge — timelines and metrics must reflect the real outcome.
			publishSolveFailed(c.cfg.Strategy, composed, members, out, g.err)
			return
		}
	}
	publishMerged(c.cfg.Strategy, composed, members, out)
	g.out = out
}

// Stop seals and drains the open generation (its members still receive
// their outcome) and makes further Submits fail with ErrStopped.
func (c *Composer) Stop() {
	c.mu.Lock()
	c.stopped = true
	g := c.cur
	c.mu.Unlock()
	if g != nil {
		c.seal(g, SealStop)
		<-g.done
	}
}
