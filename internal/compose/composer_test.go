package compose

import (
	"context"
	"errors"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cornet/internal/obs/events"
)

// solveRecorder is a Config.Solve that records every sealed generation.
type solveRecorder struct {
	mu    sync.Mutex
	calls [][]string // member change ids per solve
}

func (r *solveRecorder) solve(ctx context.Context, composed *Delta, members []*Delta) (any, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ids := make([]string, len(members))
	for i, m := range members {
		ids[i] = m.ChangeID
	}
	r.calls = append(r.calls, ids)
	return len(composed.Ops), nil
}

func testComposer(t *testing.T, cfg Config) *Composer {
	t.Helper()
	if cfg.Strategy == nil {
		cfg.Strategy = SubtreeStrategy{}
	}
	c := NewComposer(cfg)
	t.Cleanup(c.Stop)
	return c
}

// TestComposerMergesDisjoint asserts two disjoint submissions inside one
// window share a single composed outcome and a single solve.
func TestComposerMergesDisjoint(t *testing.T) {
	rec := &solveRecorder{}
	c := testComposer(t, Config{Window: 50 * time.Millisecond, Solve: rec.solve})

	var wg sync.WaitGroup
	outs := make([]*Outcome, 2)
	errs := make([]error, 2)
	deltas := []*Delta{
		node("chg-a", "t1", Path{"east", "x"}),
		node("chg-b", "t2", Path{"west", "y"}),
	}
	for i := range deltas {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], errs[i] = c.Submit(context.Background(), deltas[i], Reject)
		}(i)
	}
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("submit %d: %v", i, errs[i])
		}
	}
	if outs[0].ComposedID != outs[1].ComposedID {
		t.Fatalf("members got different composed ids: %q vs %q", outs[0].ComposedID, outs[1].ComposedID)
	}
	if len(outs[0].Members) != 2 || outs[0].Members[0] != "chg-a" || outs[0].Members[1] != "chg-b" {
		t.Fatalf("members = %v", outs[0].Members)
	}
	if outs[0].Result != 2 {
		t.Fatalf("solve result = %v, want 2 composed ops", outs[0].Result)
	}
	if len(rec.calls) != 1 || len(rec.calls[0]) != 2 {
		t.Fatalf("solver ran %d times on %v, want one call with both members", len(rec.calls), rec.calls)
	}
	if outs[0].Strategy != "subtree" || outs[0].Parallelism != Full {
		t.Fatalf("outcome strategy/parallelism = %s/%s", outs[0].Strategy, outs[0].Parallelism)
	}
}

// TestComposerRejectsConflict asserts Reject mode fails fast with the
// diagnosis while the open generation still completes.
func TestComposerRejectsConflict(t *testing.T) {
	rec := &solveRecorder{}
	c := testComposer(t, Config{Window: 80 * time.Millisecond, Solve: rec.solve})

	first := make(chan error, 1)
	go func() {
		_, err := c.Submit(context.Background(), node("chg-a", "t1", Path{"east", "x"}), Reject)
		first <- err
	}()
	// Wait until chg-a's generation is open.
	waitForOpen(t, c)

	_, err := c.Submit(context.Background(), node("chg-b", "t2", Path{"east"}), Reject)
	var cerr *ConflictError
	if !errors.As(err, &cerr) {
		t.Fatalf("conflicting submit returned %v, want *ConflictError", err)
	}
	if cerr.Diagnosis.Strategy != "subtree" {
		t.Fatalf("diagnosis strategy = %q", cerr.Diagnosis.Strategy)
	}
	if got := cerr.Diagnosis.Changes(); len(got) != 2 || got[0] != "chg-a" || got[1] != "chg-b" {
		t.Fatalf("diagnosis changes = %v", got)
	}
	if err := <-first; err != nil {
		t.Fatalf("first submission failed: %v", err)
	}
	if len(rec.calls) != 1 {
		t.Fatalf("solver ran %d times, want 1", len(rec.calls))
	}
}

// TestComposerQueueRetries asserts Queue mode parks the conflicting
// submission behind the open generation and succeeds on retry.
func TestComposerQueueRetries(t *testing.T) {
	rec := &solveRecorder{}
	c := testComposer(t, Config{Window: 60 * time.Millisecond, Solve: rec.solve})

	first := make(chan error, 1)
	go func() {
		_, err := c.Submit(context.Background(), node("chg-a", "t1", Path{"east", "x"}), Reject)
		first <- err
	}()
	waitForOpen(t, c)

	out, err := c.Submit(context.Background(), node("chg-b", "t2", Path{"east", "x"}), Queue)
	if err != nil {
		t.Fatalf("queued submit failed: %v", err)
	}
	if len(out.Members) != 1 || out.Members[0] != "chg-b" {
		t.Fatalf("retried members = %v", out.Members)
	}
	if err := <-first; err != nil {
		t.Fatalf("first submission failed: %v", err)
	}
	if len(rec.calls) != 2 {
		t.Fatalf("solver ran %d times, want 2 (one per generation)", len(rec.calls))
	}
}

// TestComposerQueueExhausts asserts a persistently conflicting Queue
// submission gives up after MaxRequeue with a ConflictError that records
// the requeue count.
func TestComposerQueueExhausts(t *testing.T) {
	// A blocking Solve pins down generation lifetimes: while a sealed
	// generation solves, the next conflicting generation is opened, so the
	// queued chg-b deterministically collides on every retry. Each
	// generation claims a different node under east: a repeat of the last
	// generation's footprint would cover the cohort and seal at its own
	// join, leaving nothing open for chg-b to collide with.
	entered := make(chan struct{})
	release := make(chan struct{})
	c := testComposer(t, Config{Window: 300 * time.Millisecond, MaxRequeue: 2,
		Solve: func(context.Context, *Delta, []*Delta) (any, error) {
			entered <- struct{}{}
			<-release
			return nil, nil
		}})

	submitA := func(id, leaf string) {
		go c.Submit(context.Background(), node(id, "t1", Path{"east", leaf}), Reject)
	}
	submitA("chg-a1", "x")
	waitForOpen(t, c)

	bdone := make(chan error, 1)
	go func() {
		_, err := c.Submit(context.Background(), node("chg-b", "t2", Path{"east"}), Queue)
		bdone <- err
	}()

	for _, next := range [][2]string{{"chg-a2", "y"}, {"chg-a3", "z"}} {
		<-entered                 // previous generation sealed and is solving
		submitA(next[0], next[1]) // open the next conflicting generation
		waitForOpen(t, c)         // ... and confirm it before chg-b can retry
		release <- struct{}{}
	}
	var cerr *ConflictError
	if err := <-bdone; !errors.As(err, &cerr) {
		t.Fatalf("exhausted queue returned %v, want *ConflictError", err)
	}
	if cerr.Requeued != 2 {
		t.Fatalf("Requeued = %d, want 2", cerr.Requeued)
	}
	<-entered // drain chg-a3's generation
	release <- struct{}{}
}

// TestComposerIdempotentResubmit asserts the same change id with an equal
// delta joins its pending generation instead of duplicating it, and that
// a different footprint under a pending id is refused.
func TestComposerIdempotentResubmit(t *testing.T) {
	rec := &solveRecorder{}
	c := testComposer(t, Config{Window: 80 * time.Millisecond, Solve: rec.solve})

	d := node("chg-a", "t1", Path{"east", "x"})
	outs := make([]*Outcome, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], errs[i] = c.Submit(context.Background(), d, Reject)
		}(i)
	}
	waitForOpen(t, c)
	if _, err := c.Submit(context.Background(), node("chg-a", "t1", Path{"west", "y"}), Reject); err == nil {
		t.Fatal("same change id with different delta was accepted")
	}
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("submit %d: %v", i, errs[i])
		}
	}
	if len(outs[0].Members) != 1 || outs[0].ComposedID != outs[1].ComposedID {
		t.Fatalf("duplicate submission did not share the generation: %v / %v", outs[0], outs[1])
	}
	if len(rec.calls) != 1 {
		t.Fatalf("solver ran %d times, want 1", len(rec.calls))
	}
}

// TestComposerMaxBatchSeals asserts reaching MaxBatch seals without
// waiting for the window.
func TestComposerMaxBatchSeals(t *testing.T) {
	rec := &solveRecorder{}
	c := testComposer(t, Config{Window: time.Hour, MaxBatch: 2, Solve: rec.solve})

	var wg sync.WaitGroup
	for _, d := range []*Delta{
		node("chg-a", "t1", Path{"east", "x"}),
		node("chg-b", "t2", Path{"west", "y"}),
	} {
		wg.Add(1)
		go func(d *Delta) {
			defer wg.Done()
			if _, err := c.Submit(context.Background(), d, Reject); err != nil {
				t.Errorf("submit %s: %v", d.ChangeID, err)
			}
		}(d)
	}
	wg.Wait() // would hang for an hour if MaxBatch didn't seal
	if len(rec.calls) != 1 || len(rec.calls[0]) != 2 {
		t.Fatalf("solver calls = %v", rec.calls)
	}
}

// TestComposerSolveErrorPropagates asserts a failing Solve reaches every
// member and is journaled as compose.failed — never as compose.merged,
// which is reserved for generations that actually produced a schedule.
func TestComposerSolveErrorPropagates(t *testing.T) {
	boom := errors.New("solve failed")
	c := testComposer(t, Config{Window: 20 * time.Millisecond,
		Solve: func(context.Context, *Delta, []*Delta) (any, error) { return nil, boom }})
	// The event journal is process-global; a unique id isolates this run.
	id := "chg-sep-" + strconv.FormatInt(time.Now().UnixNano(), 36)
	if _, err := c.Submit(context.Background(), node(id, "t1", Path{"east", "x"}), Reject); !errors.Is(err, boom) {
		t.Fatalf("Submit returned %v, want the solve error", err)
	}
	if got := events.Default.Query(events.Filter{
		ChangeID: id, Types: []events.Type{events.TypeComposeMerged},
	}); len(got) != 0 {
		t.Fatalf("failed solve journaled %d compose.merged events, want 0", len(got))
	}
	failed := events.Default.Query(events.Filter{
		ChangeID: id, Types: []events.Type{events.TypeComposeFailed},
	})
	if len(failed) != 1 {
		t.Fatalf("failed solve journaled %d compose.failed events, want 1", len(failed))
	}
	if failed[0].Fields["error"] != boom.Error() {
		t.Fatalf("compose.failed error field = %v", failed[0].Fields["error"])
	}
}

// TestComposerWithdrawOnCancel asserts a member whose context is canceled
// while its generation is still open withdraws its delta: a change that
// would have conflicted with it composes cleanly afterwards, and the
// canceled change never reaches a solve.
func TestComposerWithdrawOnCancel(t *testing.T) {
	rec := &solveRecorder{}
	c := testComposer(t, Config{Window: 150 * time.Millisecond, Solve: rec.solve})

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Submit(ctx, node("chg-wd-a", "t1", Path{"east", "x"}), Reject)
		done <- err
	}()
	waitForOpen(t, c)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled Submit returned %v, want context.Canceled", err)
	}

	// chg-wd-a claimed east/x; a claim on the whole east subtree would
	// conflict with it under the subtree strategy had it not withdrawn.
	out, err := c.Submit(context.Background(), node("chg-wd-b", "t2", Path{"east"}), Reject)
	if err != nil {
		t.Fatalf("post-withdrawal conflicting submit failed: %v", err)
	}
	if len(out.Members) != 1 || out.Members[0] != "chg-wd-b" {
		t.Fatalf("members = %v, want [chg-wd-b]", out.Members)
	}
	for _, call := range rec.calls {
		for _, id := range call {
			if id == "chg-wd-a" {
				t.Fatalf("withdrawn change reached a solve: %v", rec.calls)
			}
		}
	}
	if len(rec.calls) != 1 {
		t.Fatalf("solver ran %d times, want 1 (empty generations must not solve)", len(rec.calls))
	}
}

// TestComposerStop asserts Stop drains the open generation, fails later
// submissions with ErrStopped and leaves no goroutine behind (the hour-long
// window timer included).
func TestComposerStop(t *testing.T) {
	before := runtime.NumGoroutine()
	rec := &solveRecorder{}
	c := NewComposer(Config{Strategy: NodeStrategy{}, Window: time.Hour, Solve: rec.solve})

	done := make(chan error, 1)
	go func() {
		_, err := c.Submit(context.Background(), node("chg-a", "t1", Path{"east", "x"}), Reject)
		done <- err
	}()
	waitForOpen(t, c)
	c.Stop()
	if err := <-done; err != nil {
		t.Fatalf("drained submission failed: %v", err)
	}
	if len(rec.calls) != 1 {
		t.Fatalf("solver ran %d times, want 1", len(rec.calls))
	}
	if _, err := c.Submit(context.Background(), node("chg-b", "t2", Path{"west", "y"}), Reject); !errors.Is(err, ErrStopped) {
		t.Fatalf("post-Stop Submit returned %v, want ErrStopped", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Stop, %d before the composer existed", runtime.NumGoroutine(), before)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestComposerContextCancel asserts a waiting submission honors its
// context.
func TestComposerContextCancel(t *testing.T) {
	c := testComposer(t, Config{Window: time.Hour})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Submit(ctx, node("chg-a", "t1", Path{"east", "x"}), Reject)
		done <- err
	}()
	waitForOpen(t, c)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Submit returned %v, want context.Canceled", err)
	}
}

// TestComposerConcurrentDisjoint floods the composer with disjoint
// submissions from many goroutines (run under -race) and asserts every
// one lands in some generation with a consistent outcome.
func TestComposerConcurrentDisjoint(t *testing.T) {
	rec := &solveRecorder{}
	c := testComposer(t, Config{Window: 20 * time.Millisecond, Solve: rec.solve})

	const n = 24
	var solved atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := Path{"east", string(rune('a'+i%26)) + string(rune('0'+i/26))}
			out, err := c.Submit(context.Background(), node(nodeID(i), "t", p), Queue)
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			solved.Add(int64(1))
			found := false
			for _, m := range out.Members {
				if m == nodeID(i) {
					found = true
				}
			}
			if !found {
				t.Errorf("submit %d missing from its outcome members %v", i, out.Members)
			}
		}(i)
	}
	wg.Wait()
	if solved.Load() != n {
		t.Fatalf("%d/%d submissions completed", solved.Load(), n)
	}
	total := 0
	for _, call := range rec.calls {
		total += len(call)
	}
	if total != n {
		t.Fatalf("solver saw %d members across %d generations, want %d", total, len(rec.calls), n)
	}
}

func nodeID(i int) string { return "chg-" + string(rune('a'+i%26)) + string(rune('0'+i/26)) }

// waitForOpen spins until the composer has an open generation.
func waitForOpen(t *testing.T, c *Composer) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		c.mu.Lock()
		open := c.cur != nil
		c.mu.Unlock()
		if open {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("no generation opened")
}
