package reconcile

import (
	"context"
	"log/slog"
	"sync"
	"time"

	"cornet/internal/obs"
)

// The loop's schedule. A failed pass requeues its fleet after backoffBase,
// doubling on each consecutive failure up to backoffMax; a successful
// pass resets the count. A fleet a pass left in sync is re-diffed after
// resync, so out-of-band drift (a config change behind CORNET's back) is
// caught.
const (
	backoffBase = 10 * time.Millisecond
	backoffMax  = 15 * time.Second
	resync      = 30 * time.Second
)

// loopName labels the loop's span and its cornet_controller_* series.
const loopName = "reconcile"

// backoff is the requeue delay after the failures-th consecutive failed
// pass (failures >= 1).
func backoff(failures int) time.Duration {
	d := backoffBase
	for i := 1; i < failures && d < backoffMax; i++ {
		d *= 2
	}
	return min(d, backoffMax)
}

// loop runs pass over fleet names on one goroutine: watch, diff, apply,
// requeue. Names wait in a set kept in arrival order, so a burst of
// notifications for one fleet collapses into one pass, and a name added
// during its own pass runs once more after it. With one worker no fleet is
// ever reconciled twice at once.
type loop struct {
	// pass reconciles one fleet and reports when to run it again: after
	// the returned delay (0: only when notified), or after backoff on error.
	pass func(ctx context.Context, name string) (time.Duration, error)
	log  *slog.Logger

	mu       sync.Mutex
	queue    []string               // names waiting for a pass, oldest first
	queued   map[string]bool        // the names in queue
	timers   map[string]*time.Timer // each name's one pending delayed add
	failures map[string]int         // consecutive failed passes by name
	started  bool
	stopped  bool          // no more work is accepted
	wake     chan struct{} // nudges the worker when queue grows or the loop stops
	done     chan struct{} // closed when the worker exits
}

func newLoop(pass func(ctx context.Context, name string) (time.Duration, error), log *slog.Logger) *loop {
	return &loop{
		pass:     pass,
		log:      log,
		queued:   map[string]bool{},
		timers:   map[string]*time.Timer{},
		failures: map[string]int{},
		wake:     make(chan struct{}, 1),
		done:     make(chan struct{}),
	}
}

// add queues a name for a pass, reporting false once the loop is stopped.
func (l *loop) add(name string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.addLocked(name)
}

func (l *loop) addLocked(name string) bool {
	if l.stopped {
		return false
	}
	if !l.queued[name] {
		l.queued[name] = true
		l.queue = append(l.queue, name)
		metricQueueDepth.With(loopName).Set(float64(len(l.queue)))
		l.nudge()
	}
	return true
}

// after replaces the name's pending delayed add with one that fires after
// d; a non-positive d only cancels the pending one.
func (l *loop) after(name string, d time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if t := l.timers[name]; t != nil {
		t.Stop()
		delete(l.timers, name)
	}
	if d <= 0 || l.stopped {
		return
	}
	var t *time.Timer
	t = time.AfterFunc(d, func() {
		l.mu.Lock()
		defer l.mu.Unlock()
		// A timer that was replaced, or whose Stop lost the race with
		// its firing, is no longer the pending one and adds nothing.
		if l.timers[name] == t {
			delete(l.timers, name)
			l.addLocked(name)
		}
	})
	l.timers[name] = t
}

// requeues reports the name's consecutive failed passes.
func (l *loop) requeues(name string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failures[name]
}

// start launches the worker; passes run under ctx, and cancelling it stops
// the loop as stop does. Only the first call has an effect.
func (l *loop) start(ctx context.Context) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.started {
		return
	}
	l.started = true
	go l.run(ctx)
}

// stop refuses further work and cancels pending delays, then waits for the
// worker to finish the pass in flight and drain the queued names.
func (l *loop) stop() {
	l.mu.Lock()
	l.shutdown()
	started := l.started
	l.mu.Unlock()
	if started {
		<-l.done
	}
}

// shutdown refuses further work and cancels pending delays; callers hold
// l.mu.
func (l *loop) shutdown() {
	l.stopped = true
	for name, t := range l.timers {
		t.Stop()
		delete(l.timers, name)
	}
	l.nudge()
}

// nudge wakes the worker without blocking; callers hold l.mu.
func (l *loop) nudge() {
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

func (l *loop) run(ctx context.Context) {
	defer close(l.done)
	for {
		name, ok := l.next(ctx)
		if !ok {
			return
		}
		l.process(ctx, name)
	}
}

// next blocks until a name is queued, or reports false once the loop is
// stopped and drained.
func (l *loop) next(ctx context.Context) (string, bool) {
	for {
		l.mu.Lock()
		if ctx.Err() != nil {
			l.shutdown()
		}
		if len(l.queue) > 0 {
			name := l.queue[0]
			l.queue = l.queue[1:]
			delete(l.queued, name)
			metricQueueDepth.With(loopName).Set(float64(len(l.queue)))
			l.mu.Unlock()
			return name, true
		}
		stopped := l.stopped
		l.mu.Unlock()
		if stopped {
			return "", false
		}
		select {
		case <-l.wake:
		case <-ctx.Done():
		}
	}
}

// process runs one pass and schedules what follows it: an error backs off,
// a success resets the failure count and replaces the pending delay with
// the one the pass asked for.
func (l *loop) process(ctx context.Context, name string) {
	rctx, sp := obs.StartSpan(ctx, "controller.reconcile")
	sp.SetAttr("controller", loopName)
	sp.SetAttr("key", name)
	start := time.Now()
	delay, err := l.pass(rctx, name)
	result := "success"
	if err != nil {
		result = "error"
		sp.Fail(err)
		l.mu.Lock()
		l.failures[name]++
		n := l.failures[name]
		l.mu.Unlock()
		delay = backoff(n)
		metricRequeues.With(loopName).Inc()
		l.log.LogAttrs(rctx, slog.LevelWarn, "reconcile failed; requeued",
			slog.String("controller", loopName), slog.String("key", name),
			slog.Int("requeues", n),
			slog.Duration("backoff", delay), slog.String("err", err.Error()))
	} else {
		if delay > 0 {
			result = "requeue"
		}
		l.mu.Lock()
		delete(l.failures, name)
		l.mu.Unlock()
	}
	l.after(name, delay)
	sp.SetAttr("result", result)
	sp.End()
	metricReconciles.With(loopName, result).Inc()
	metricReconcileDuration.With(loopName).Observe(time.Since(start).Seconds())
}
