package orchestrator

import (
	"context"
	"math/rand"
	"sync"
	"time"

	"cornet/internal/orchestrator/resilience"
)

// This file holds the engine's policy-driven invocation loop: per-attempt
// timeouts, circuit-breaker admission, retryable-error classification, and
// backoff with deterministic seeded jitter. The policy semantics live in
// orchestrator/resilience; this is the runtime that applies them to the
// engine's Invoker.

// invoke runs one building-block invocation under pol. It returns the
// outputs, the number of attempts actually made (0 when the circuit breaker
// rejected the call outright), and the final error. It retries only errors
// the policy classifies as transient, never past the attempt budget, and
// never once the parent context is done; onRetry observes every retry it
// schedules, before the wait.
func (eng *Engine) invoke(ctx context.Context, api string, args map[string]string, pol resilience.Policy,
	onRetry func(attempt int, delay time.Duration, err error)) (map[string]string, int, error) {
	budget := pol.Attempts()
	for attempt := 1; ; attempt++ {
		if eng.Breakers != nil {
			if err := eng.Breakers.Allow(api); err != nil {
				return nil, attempt - 1, err
			}
		}
		actx := ctx
		cancel := func() {}
		if pol.Timeout > 0 {
			actx, cancel = context.WithTimeout(ctx, pol.Timeout.Std())
		}
		out, err := eng.invoker.Invoke(actx, api, args)
		cancel()
		if eng.Breakers != nil {
			eng.Breakers.Record(api, err == nil)
		}
		if err == nil {
			return out, attempt, nil
		}
		if ctx.Err() != nil || attempt >= budget || !pol.Retryable(err) {
			return nil, attempt, err
		}
		d := eng.jitter.delay(pol.Backoff, attempt)
		onRetry(attempt, d, err)
		if serr := eng.Sleep(ctx, d); serr != nil {
			// The workflow context died during backoff; surface the
			// block's error, the caller notices ctx.Err separately.
			return nil, attempt, err
		}
	}
}

// ctxSleep waits for d unless the context ends first.
func ctxSleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// jitterRand is a mutex-guarded seeded random source for backoff jitter:
// one per engine, so a fixed seed yields a reproducible retry schedule
// regardless of which goroutine draws.
type jitterRand struct {
	mu  sync.Mutex
	rng *rand.Rand
}

// newJitterRand seeds a jitter source.
func newJitterRand(seed int64) *jitterRand {
	return &jitterRand{rng: rand.New(rand.NewSource(seed))}
}

// delay computes the jittered backoff for retry #attempt under b.
func (j *jitterRand) delay(b resilience.Backoff, attempt int) time.Duration {
	j.mu.Lock()
	defer j.mu.Unlock()
	return b.Delay(attempt, j.rng)
}
