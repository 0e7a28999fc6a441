package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"cornet/internal/obs"
	"cornet/internal/obs/events"
	"cornet/internal/obs/tenants"
)

// Shed reasons reported in ShedError and the cornet_admission_shed_total
// metric.
const (
	// ShedQueueFull: the global admission queue is at QueueLimit.
	ShedQueueFull = "queue_full"
	// ShedTenantQuota: the tenant's own backlog is at TenantQuota.
	ShedTenantQuota = "tenant_quota"
	// ShedDeadline: the request's deadline cannot survive the estimated
	// queue wait (dropped at admission) or expired while queued (dropped
	// at dequeue, before wasting a solve).
	ShedDeadline = "deadline"
	// ShedAbandoned: the caller's context ended while the request was
	// still queued.
	ShedAbandoned = "abandoned"
)

// ErrStopped is returned to Submit callers whose queued request was still
// pending when the admitter shut down.
var ErrStopped = errors.New("serve: admission stopped")

// ShedError reports a request refused by admission control. The HTTP
// layer maps it to 503 with a Retry-After hint.
type ShedError struct {
	// Reason is one of the Shed* constants.
	Reason string
	// RetryAfter estimates when capacity frees up (EWMA service time
	// scaled by the backlog), floored at one second.
	RetryAfter time.Duration
}

// Error formats the shed reason and the retry hint.
func (e *ShedError) Error() string {
	return fmt.Sprintf("admission: shed (%s), retry after %s", e.Reason, e.RetryAfter)
}

// AdmitConfig tunes an Admitter.
type AdmitConfig struct {
	// Workers bounds concurrent solves (default 2).
	Workers int
	// QueueLimit bounds total queued requests across tenants (default 64).
	QueueLimit int
	// TenantQuota bounds one tenant's queued requests (default: the
	// global QueueLimit, i.e. no per-tenant bound beyond the global one).
	TenantQuota int
	// Weights overrides per-tenant fair-dequeue weights: the number of
	// requests a tenant may run per scheduling pass before the pass moves
	// to the next tenant. Unlisted tenants get DefaultWeight.
	Weights map[string]int
	// DefaultWeight is the per-pass batch for unlisted tenants (default 2).
	DefaultWeight int
	// Log is inert (the admitter logs nothing) and stays only because the
	// frozen bench/replay.go sets it; ROADMAP item 1's rewrite deletes it.
	Log *slog.Logger
}

func (c AdmitConfig) withDefaults() AdmitConfig {
	if c.Workers < 1 {
		c.Workers = 2
	}
	if c.QueueLimit < 1 {
		c.QueueLimit = 64
	}
	if c.TenantQuota < 1 {
		c.TenantQuota = c.QueueLimit
	}
	if c.DefaultWeight < 1 {
		c.DefaultWeight = 2
	}
	return c
}

// job is one queued plan request. state moves 0 (queued) -> 1 (claimed by
// a worker) or 2 (abandoned by its submitter); the CAS loser defers to
// the winner.
type job struct {
	ctx    context.Context
	tenant string
	run    func()
	done   chan struct{}
	state  atomic.Int32
	enq    time.Time
	wait   time.Duration
	err    error
}

// Admitter is the serving layer's admission controller: a bounded queue
// of plan requests in front of the solver, drained fairly across tenants
// by Workers goroutines it owns. Tenants with backlog wait their turn in a
// ring; a worker takes the head tenant, runs up to the tenant's weight of
// its queued requests and re-appends it behind the others while it has
// backlog — weighted round-robin. A tenant's backlog is drained by one
// worker at a time (a tenant being served is in serving, not in ring), so
// single-tenant traffic solves serially whatever Workers says. Overload is
// shed at admission (global and per-tenant bounds, deadline-infeasible
// requests) so a flooding tenant delays, but never starves or crashes, the
// rest.
type Admitter struct {
	cfg AdmitConfig
	wg  sync.WaitGroup

	mu      sync.Mutex
	ready   *sync.Cond // the ring gained a tenant, or stopped was set
	queues  map[string][]*job
	ring    []string        // tenants with backlog and no worker, in turn order
	serving map[string]bool // tenants a worker is draining now
	pending int
	ewma    time.Duration // per-request service time estimate
	stopped bool
}

// NewAdmitter builds and starts an admission controller.
func NewAdmitter(cfg AdmitConfig) *Admitter {
	a := &Admitter{cfg: cfg.withDefaults(), queues: map[string][]*job{}, serving: map[string]bool{}}
	a.ready = sync.NewCond(&a.mu)
	for i := 0; i < a.cfg.Workers; i++ {
		a.wg.Add(1)
		go a.worker()
	}
	return a
}

// Submit queues run under the tenant's backlog and blocks until a worker
// has run it, the ctx ends, or admission sheds it. It returns the queue
// wait. Shed requests return *ShedError without ever queueing; a ctx that
// ends while queued returns ctx.Err() and gives the queued place back.
// After Stop, Submit runs inline (the drain path still answers).
func (a *Admitter) Submit(ctx context.Context, tenant string, run func()) (time.Duration, error) {
	a.mu.Lock()
	if a.stopped {
		a.mu.Unlock()
		run()
		return 0, nil
	}
	if a.pending >= a.cfg.QueueLimit {
		a.mu.Unlock()
		a.shed(ctx, tenant, ShedQueueFull)
		return 0, &ShedError{Reason: ShedQueueFull, RetryAfter: a.retryAfter()}
	}
	if len(a.queues[tenant]) >= a.cfg.TenantQuota {
		a.mu.Unlock()
		a.shed(ctx, tenant, ShedTenantQuota)
		return 0, &ShedError{Reason: ShedTenantQuota, RetryAfter: a.retryAfter()}
	}
	if dl, ok := ctx.Deadline(); ok {
		if est := a.estWaitLocked(); est > 0 && time.Now().Add(est).After(dl) {
			a.mu.Unlock()
			a.shed(ctx, tenant, ShedDeadline)
			return 0, &ShedError{Reason: ShedDeadline, RetryAfter: a.retryAfter()}
		}
	}
	j := &job{ctx: ctx, tenant: tenant, run: run, done: make(chan struct{}), enq: time.Now()}
	if len(a.queues[tenant]) == 0 && !a.serving[tenant] {
		a.ring = append(a.ring, tenant)
		a.ready.Signal()
	}
	a.queues[tenant] = append(a.queues[tenant], j)
	a.pending++
	metricQueueDepth.Set(float64(a.pending))
	a.mu.Unlock()

	select {
	case <-j.done:
		return j.wait, j.err
	case <-ctx.Done():
		if j.state.CompareAndSwap(0, 2) {
			a.unqueue(j)
			a.shed(ctx, tenant, ShedAbandoned)
			return time.Since(j.enq), ctx.Err()
		}
		// A worker claimed the job first; its result stands.
		<-j.done
		return j.wait, j.err
	}
}

// Depth reports the queued (not yet dequeued) request count.
func (a *Admitter) Depth() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.pending
}

// Stop shuts the workers down, waits out the passes they are in, and fails
// still-queued requests with ErrStopped.
func (a *Admitter) Stop() {
	a.mu.Lock()
	a.stopped = true
	a.ready.Broadcast()
	a.mu.Unlock()
	a.wg.Wait()
	a.mu.Lock()
	defer a.mu.Unlock()
	for tenant, q := range a.queues {
		for _, j := range q {
			if j.state.CompareAndSwap(0, 1) {
				j.err = ErrStopped
				close(j.done)
			}
		}
		delete(a.queues, tenant)
	}
	a.pending = 0
	metricQueueDepth.Set(0)
}

// worker takes the tenant at the head of the ring and gives it one
// fair-dequeue pass: up to the tenant's weight of queued requests. A tenant
// with remaining backlog goes back on the ring behind every other waiting
// tenant — round-robin with per-tenant batch sizes as weights.
func (a *Admitter) worker() {
	defer a.wg.Done()
	for {
		a.mu.Lock()
		for len(a.ring) == 0 && !a.stopped {
			a.ready.Wait()
		}
		if a.stopped {
			a.mu.Unlock()
			return
		}
		tenant := a.ring[0]
		a.ring = a.ring[1:]
		a.serving[tenant] = true
		a.mu.Unlock()

		for i := 0; i < a.weight(tenant); i++ {
			j := a.pop(tenant)
			if j == nil {
				break
			}
			a.runJob(j)
		}

		a.mu.Lock()
		delete(a.serving, tenant)
		if len(a.queues[tenant]) > 0 {
			a.ring = append(a.ring, tenant)
			a.ready.Signal()
		}
		a.mu.Unlock()
	}
}

func (a *Admitter) weight(tenant string) int {
	if w, ok := a.cfg.Weights[tenant]; ok && w > 0 {
		return w
	}
	return a.cfg.DefaultWeight
}

// pop dequeues the tenant's oldest request, nil when drained.
func (a *Admitter) pop(tenant string) *job {
	a.mu.Lock()
	defer a.mu.Unlock()
	q := a.queues[tenant]
	if len(q) == 0 {
		delete(a.queues, tenant)
		return nil
	}
	j := q[0]
	if len(q) == 1 {
		delete(a.queues, tenant)
	} else {
		a.queues[tenant] = q[1:]
	}
	a.pending--
	metricQueueDepth.Set(float64(a.pending))
	return j
}

// unqueue gives an abandoned request's place back, so a dead entry does not
// count against QueueLimit and TenantQuota until a worker reaches it. A
// request a worker popped first is no longer in its queue; runJob skips it.
func (a *Admitter) unqueue(j *job) {
	a.mu.Lock()
	defer a.mu.Unlock()
	q := a.queues[j.tenant]
	i := slices.Index(q, j)
	if i < 0 {
		return
	}
	a.pending--
	metricQueueDepth.Set(float64(a.pending))
	if len(q) > 1 {
		a.queues[j.tenant] = slices.Delete(q, i, i+1)
		return
	}
	// The tenant's only request: its turn on the ring goes with it.
	delete(a.queues, j.tenant)
	a.ring = slices.DeleteFunc(a.ring, func(t string) bool { return t == j.tenant })
}

// runJob claims and executes one dequeued request on the worker
// goroutine. Abandoned requests are skipped; requests whose deadline
// expired while queued are failed without a solve.
func (a *Admitter) runJob(j *job) {
	if !j.state.CompareAndSwap(0, 1) {
		return // submitter abandoned it while queued
	}
	j.wait = time.Since(j.enq)
	metricWait.Observe(j.wait.Seconds())
	if err := j.ctx.Err(); err != nil {
		j.err = err
		a.shed(j.ctx, j.tenant, ShedDeadline)
		close(j.done)
		return
	}
	events.Default.Publish(events.Event{
		Type: events.TypeAdmitted, Source: "admission",
		ChangeID: obs.ChangeID(j.ctx), Tenant: j.tenant,
		Fields: map[string]any{"wait_ns": j.wait.Nanoseconds()},
	})
	start := time.Now()
	j.run()
	a.observe(time.Since(start))
	metricServed.Inc()
	close(j.done)
}

// shed records one refused request: the global shed metric, the tenant's
// account, and an admission.shed journal event.
func (a *Admitter) shed(ctx context.Context, tenant, reason string) {
	metricShed.With(reason).Inc()
	tenants.Default.RecordShed(tenant)
	events.Default.Publish(events.Event{
		Type: events.TypeShed, Source: "admission",
		ChangeID: obs.ChangeID(ctx), Tenant: tenant,
		Fields: map[string]any{"reason": reason},
	})
}

// observe folds one service time into the EWMA estimate.
func (a *Admitter) observe(d time.Duration) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.ewma == 0 {
		a.ewma = d
		return
	}
	a.ewma = (a.ewma*4 + d) / 5
}

// estWaitLocked estimates queue wait for a newly admitted request:
// backlog ahead of it, spread over the workers, at the EWMA service
// time. Callers hold a.mu.
func (a *Admitter) estWaitLocked() time.Duration {
	return a.ewma * time.Duration(a.pending/a.cfg.Workers+1)
}

// retryAfter estimates when shedding stops, floored at a second so
// clients do not hammer a loaded server.
func (a *Admitter) retryAfter() time.Duration {
	a.mu.Lock()
	est := a.estWaitLocked()
	a.mu.Unlock()
	if est < time.Second {
		est = time.Second
	}
	return est
}
