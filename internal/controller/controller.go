// Package controller is CORNET's controller runtime: a crossplane-style
// reconciliation substrate for a loop that watches a key, diffs it against
// what is wanted and requeues on failure. It has one consumer, the
// declarative fleet reconciler (subpackage reconcile), and stays a package
// of its own so that backoff, resync, bounded workers and drain are tested
// without building a fleet.
//
// It provides a rate-limited deduplicating work queue with bounded worker
// concurrency (Queue, Controller), per-item exponential-backoff requeue
// (RateLimiter), and status conditions with observed generations for
// managed objects (Condition). The design follows the Kubernetes
// controller-runtime / client-go workqueue discipline argued for in
// "Service Provider DevOps" (John et al.): the ops loop — watch, diff,
// apply, requeue on failure — is the primitive. One-shot workflow
// executions do not go through it: a run-once closure has no key to
// deduplicate and no error to back off, so the orchestrator bounds them
// with a counting semaphore instead. Neither does plan admission: a
// tenant's turn has no error to back off and no object to diff, so
// plan/serve's Admitter owns its ring of tenant queues.
package controller

import (
	"context"
	"log/slog"
	"sync"
	"time"

	"cornet/internal/obs"
)

// Result tells the controller what to do with a key after a reconcile pass
// that returned no error.
type Result struct {
	// RequeueAfter re-adds the key after a fixed delay (and resets its
	// backoff history); use it for periodic resyncs.
	RequeueAfter time.Duration
}

// Options tune a Controller.
type Options struct {
	// Workers is the bounded reconcile concurrency (default 1).
	Workers int
	// Limiter overrides the requeue backoff (default: 10ms base, 15s cap).
	Limiter *RateLimiter
	// Log receives requeue and completion records; nil stays silent.
	Log *slog.Logger
}

// Controller runs a reconcile function over a rate-limited work queue
// with a bounded worker pool.
type Controller struct {
	name    string
	rec     func(ctx context.Context, key string) (Result, error)
	queue   *Queue
	workers int
	log     *slog.Logger

	wg        sync.WaitGroup
	startOnce sync.Once
	stopOnce  sync.Once
	stopped   chan struct{}
}

// New assembles a controller; call Start to launch its workers. rec drives
// one managed object toward its desired state: it is invoked with the
// object's key, returning an error requeues the key with exponential
// backoff, and returning a Result schedules follow-up work explicitly. It
// must be safe for concurrent calls with distinct keys; the queue
// guarantees a single key is never reconciled twice at once.
func New(name string, rec func(ctx context.Context, key string) (Result, error), o Options) *Controller {
	if o.Workers < 1 {
		o.Workers = 1
	}
	return &Controller{
		name:    name,
		rec:     rec,
		queue:   NewQueue(name, o.Limiter),
		workers: o.Workers,
		log:     o.Log,
		stopped: make(chan struct{}),
	}
}

// Add enqueues a key for reconciliation; it reports false once the
// controller has been stopped.
func (c *Controller) Add(key string) bool { return c.queue.Add(key) }

// Len reports the number of keys ready to reconcile.
func (c *Controller) Len() int { return c.queue.Len() }

// Requeues reports a key's accumulated backoff requeues.
func (c *Controller) Requeues(key string) int { return c.queue.Requeues(key) }

// Start launches the worker pool. Reconciles run under ctx: cancelling it
// shuts the queue down (after which ready keys drain and workers exit), so
// ctx is both the work context and the lifecycle signal. Start is
// idempotent; only the first call's context is used.
func (c *Controller) Start(ctx context.Context) {
	c.startOnce.Do(func() {
		go func() {
			select {
			case <-ctx.Done():
				c.queue.ShutDown()
			case <-c.stopped:
			}
		}()
		for i := 0; i < c.workers; i++ {
			c.wg.Add(1)
			go func() {
				defer c.wg.Done()
				for {
					key, shutdown := c.queue.Get()
					if shutdown {
						return
					}
					c.process(ctx, key)
				}
			}()
		}
	})
}

// Stop shuts the queue down gracefully — ready keys still drain, delayed
// keys are dropped — and waits for all workers to finish their in-flight
// reconciles. Idempotent.
func (c *Controller) Stop() {
	c.stopOnce.Do(func() { close(c.stopped) })
	c.queue.ShutDown()
	c.wg.Wait()
}

// process runs one reconcile pass and routes its outcome: errors go back
// through the rate limiter, fixed-delay requeues reset the backoff, clean
// completions forget the key.
func (c *Controller) process(ctx context.Context, key string) {
	defer c.queue.Done(key)
	rctx, sp := obs.StartSpan(ctx, "controller.reconcile")
	sp.SetAttr("controller", c.name)
	sp.SetAttr("key", key)
	start := time.Now()
	res, err := c.rec(rctx, key)
	result := "success"
	switch {
	case err != nil:
		result = "error"
		sp.Fail(err)
		d := c.queue.AddRateLimited(key)
		metricRequeues.With(c.name).Inc()
		c.logger().LogAttrs(rctx, slog.LevelWarn, "reconcile failed; requeued",
			slog.String("controller", c.name), slog.String("key", key),
			slog.Int("requeues", c.queue.Requeues(key)),
			slog.Duration("backoff", d), slog.String("err", err.Error()))
	case res.RequeueAfter > 0:
		result = "requeue"
		c.queue.Forget(key)
		c.queue.AddAfter(key, res.RequeueAfter)
	default:
		c.queue.Forget(key)
	}
	sp.SetAttr("result", result)
	sp.End()
	metricReconciles.With(c.name, result).Inc()
	metricReconcileDuration.With(c.name).Observe(time.Since(start).Seconds())
}

// logger returns the controller's structured logger, defaulting to a
// silent one.
func (c *Controller) logger() *slog.Logger {
	if c.log != nil {
		return c.log
	}
	return obs.NopLogger()
}
