package controller

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestControllerReconcilesAndForgets(t *testing.T) {
	var calls atomic.Int64
	done := make(chan string, 10)
	c := New("test-ok", func(_ context.Context, key string) (Result, error) {
		calls.Add(1)
		done <- key
		return Result{}, nil
	}, Options{Workers: 2})
	c.Start(context.Background())
	defer c.Stop()
	c.Add("a")
	c.Add("b")
	for i := 0; i < 2; i++ {
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatal("reconcile did not run")
		}
	}
	if calls.Load() != 2 {
		t.Fatalf("calls = %d, want 2", calls.Load())
	}
	if n := c.Requeues("a"); n != 0 {
		t.Fatalf("clean key accumulated %d requeues", n)
	}
}

// TestControllerBackoffRetryConverges is the runtime's core contract: a
// reconciler that fails N times is requeued with exponential backoff and
// eventually converges, after which its backoff history is forgotten.
func TestControllerBackoffRetryConverges(t *testing.T) {
	var calls atomic.Int64
	converged := make(chan struct{})
	c := New("test-backoff", func(_ context.Context, key string) (Result, error) {
		n := calls.Add(1)
		if n < 4 {
			return Result{}, errors.New("still drifting")
		}
		close(converged)
		return Result{}, nil
	}, Options{Workers: 1, Limiter: NewRateLimiter(time.Millisecond, 10*time.Millisecond)})
	c.Start(context.Background())
	defer c.Stop()
	c.Add("fleet")
	select {
	case <-converged:
	case <-time.After(5 * time.Second):
		t.Fatalf("never converged after %d calls", calls.Load())
	}
	if calls.Load() != 4 {
		t.Fatalf("calls = %d, want 4 (3 failures + success)", calls.Load())
	}
	// The successful pass forgets the key: its next failure starts at Base.
	waitFor(t, func() bool { return c.Requeues("fleet") == 0 })
}

func TestControllerRequeueAfter(t *testing.T) {
	var calls atomic.Int64
	second := make(chan struct{})
	c := New("test-resync", func(_ context.Context, key string) (Result, error) {
		if calls.Add(1) == 2 {
			close(second)
			return Result{}, nil
		}
		return Result{RequeueAfter: 5 * time.Millisecond}, nil
	}, Options{Workers: 1})
	c.Start(context.Background())
	defer c.Stop()
	c.Add("k")
	select {
	case <-second:
	case <-time.After(2 * time.Second):
		t.Fatal("RequeueAfter never redelivered the key")
	}
}

func TestControllerBoundedConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int64
	var wg sync.WaitGroup
	wg.Add(10)
	c := New("test-bound", func(_ context.Context, key string) (Result, error) {
		defer wg.Done()
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(10 * time.Millisecond)
		cur.Add(-1)
		return Result{}, nil
	}, Options{Workers: workers})
	c.Start(context.Background())
	for i := 0; i < 10; i++ {
		c.Add(fmt.Sprintf("k%d", i))
	}
	wg.Wait()
	c.Stop()
	if p := peak.Load(); p > workers {
		t.Fatalf("peak concurrency %d exceeded worker bound %d", p, workers)
	}
}

func TestControllerGracefulStopDrainsReadyWork(t *testing.T) {
	var calls atomic.Int64
	block := make(chan struct{})
	c := New("test-drain", func(_ context.Context, key string) (Result, error) {
		if key == "slow" {
			<-block
		}
		calls.Add(1)
		return Result{}, nil
	}, Options{Workers: 1})
	c.Start(context.Background())
	c.Add("slow")
	c.Add("queued")
	// Give the worker time to pick up "slow" so "queued" is ready depth.
	waitFor(t, func() bool { return c.Len() == 1 })
	go func() {
		time.Sleep(10 * time.Millisecond)
		close(block)
	}()
	c.Stop() // must wait for the in-flight reconcile AND drain "queued"
	if calls.Load() != 2 {
		t.Fatalf("calls after Stop = %d, want 2 (in-flight finished, ready drained)", calls.Load())
	}
	if c.Add("late") {
		t.Fatal("Add accepted after Stop")
	}
}

func TestControllerContextCancelStops(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ran := make(chan struct{}, 1)
	c := New("test-ctx", func(ctx context.Context, key string) (Result, error) {
		ran <- struct{}{}
		return Result{}, nil
	}, Options{Workers: 1})
	c.Start(ctx)
	c.Add("k")
	<-ran
	cancel()
	c.Stop() // returns because cancellation shut the queue down
	if c.Add("post") {
		t.Fatal("Add accepted after context cancellation")
	}
}

func TestConditions(t *testing.T) {
	t0 := time.Unix(100, 0)
	t1 := time.Unix(200, 0)
	t2 := time.Unix(300, 0)
	var conds []Condition
	conds = SetCondition(conds, Condition{Type: ConditionSynced, Status: ConditionFalse, Reason: "DriftDetected"}, t0)
	// Same status, refreshed message: transition time must not move.
	conds = SetCondition(conds, Condition{Type: ConditionSynced, Status: ConditionFalse, Reason: "ExecutionFailed"}, t1)
	c, ok := GetCondition(conds, ConditionSynced)
	if !ok || !c.LastTransition.Equal(t0) || c.Reason != "ExecutionFailed" {
		t.Fatalf("same-status update: got %+v, want reason refresh with t0 transition", c)
	}
	// Status flip moves the transition time.
	conds = SetCondition(conds, Condition{Type: ConditionSynced, Status: ConditionTrue, Reason: "InSync"}, t2)
	c, _ = GetCondition(conds, ConditionSynced)
	if !c.LastTransition.Equal(t2) {
		t.Fatalf("status flip kept old transition time %v", c.LastTransition)
	}
	if !ConditionIs(conds, ConditionSynced, ConditionTrue) {
		t.Fatal("ConditionIs(Synced, True) = false")
	}
	// A second type coexists.
	conds = SetCondition(conds, Condition{Type: ConditionReady, Status: ConditionTrue}, t2)
	if len(conds) != 2 {
		t.Fatalf("len(conds) = %d, want 2", len(conds))
	}
}

// waitFor polls cond for up to 2s; it fails the test on timeout.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition never became true")
}
