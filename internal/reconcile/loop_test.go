package reconcile

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cornet/internal/obs"
)

// newTestLoop returns a loop running pass, stopped when the test ends.
func newTestLoop(t *testing.T, pass func(ctx context.Context, name string) (time.Duration, error)) *loop {
	t.Helper()
	l := newLoop(pass, obs.NopLogger())
	t.Cleanup(l.stop)
	return l
}

// newStubManager is newTestRig's manager with its pass replaced by pass,
// so store notifications drive the loop without planning anything.
func newStubManager(t *testing.T, pass func(ctx context.Context, name string) (time.Duration, error)) *Manager {
	t.Helper()
	_, _, m := newTestRig(t, 1)
	m.loop.pass = pass
	t.Cleanup(m.Stop)
	return m
}

func apply(t *testing.T, m *Manager, name, version string) {
	t.Helper()
	if _, err := m.Store().Apply(Spec{Name: name, NFType: "vGW", SWVersion: version}); err != nil {
		t.Fatal(err)
	}
}

// TestLoopBurstCollapsesIntoOnePass declares one fleet twenty times
// before the loop starts: the notifications and Start's own sweep queue
// the name once, so one pass runs.
func TestLoopBurstCollapsesIntoOnePass(t *testing.T) {
	var calls atomic.Int32
	m := newStubManager(t, func(context.Context, string) (time.Duration, error) {
		calls.Add(1)
		return 0, nil
	})
	for v := 1; v <= 20; v++ {
		apply(t, m, "f", fmt.Sprintf("v%d", v))
	}
	m.Start(context.Background())
	m.Stop()
	if n := calls.Load(); n != 1 {
		t.Fatalf("%d passes for a burst of one name, want 1", n)
	}
}

// TestLoopApplyDuringOwnPassRunsOnceMore re-declares a fleet three times
// while its pass runs: the fleet is never reconciled twice at once, and
// exactly one more pass follows.
func TestLoopApplyDuringOwnPassRunsOnceMore(t *testing.T) {
	var calls, inFlight atomic.Int32
	entered, release := make(chan struct{}), make(chan struct{})
	m := newStubManager(t, func(context.Context, string) (time.Duration, error) {
		if inFlight.Add(1) > 1 {
			t.Error("two passes of one fleet at once")
		}
		defer inFlight.Add(-1)
		if calls.Add(1) == 1 {
			close(entered)
			<-release
		}
		return 0, nil
	})
	apply(t, m, "f", "v1")
	m.Start(context.Background())
	<-entered
	for _, v := range []string{"v2", "v3", "v4"} {
		apply(t, m, "f", v)
	}
	close(release)
	m.Stop()
	if n := calls.Load(); n != 2 {
		t.Fatalf("%d passes, want 2 (the first and one follow-up)", n)
	}
}

// TestBackoffDoublesToCap pins the requeue schedule of consecutive
// failures: 10 ms, doubling, held at 15 s.
func TestBackoffDoublesToCap(t *testing.T) {
	want := 10 * time.Millisecond
	for n := 1; n <= 11; n++ {
		if d := backoff(n); d != want {
			t.Fatalf("backoff(%d) = %v, want %v", n, d, want)
		}
		want *= 2
	}
	for _, n := range []int{12, 13, 64, 1 << 20} {
		if d := backoff(n); d != 15*time.Second {
			t.Fatalf("backoff(%d) = %v, want the 15s cap", n, d)
		}
	}
}

// TestLoopBackoffRetryConvergesAndResets fails a fleet's first three
// passes: each failure requeues it with backoff and counts one more
// requeue, and the success that follows resets the count.
func TestLoopBackoffRetryConvergesAndResets(t *testing.T) {
	var l *loop
	var seen []int // Requeues as each pass starts
	converged := make(chan struct{})
	l = newTestLoop(t, func(_ context.Context, name string) (time.Duration, error) {
		seen = append(seen, l.requeues(name))
		if len(seen) < 4 {
			return 0, fmt.Errorf("still drifting")
		}
		close(converged)
		return 0, nil
	})
	l.start(context.Background())
	l.add("f")
	select {
	case <-converged:
	case <-time.After(5 * time.Second):
		t.Fatalf("never converged; requeues seen %v", seen)
	}
	l.stop()
	if fmt.Sprint(seen) != "[0 1 2 3]" {
		t.Fatalf("requeues at each pass = %v, want [0 1 2 3]", seen)
	}
	if n := l.requeues("f"); n != 0 {
		t.Fatalf("requeues after success = %d, want 0", n)
	}
}

// TestLoopRequeueAfterRedelivers: a pass asking for a re-diff gets one
// after the delay.
func TestLoopRequeueAfterRedelivers(t *testing.T) {
	var calls atomic.Int32
	second := make(chan struct{})
	l := newTestLoop(t, func(context.Context, string) (time.Duration, error) {
		if calls.Add(1) == 2 {
			close(second)
			return 0, nil
		}
		return 5 * time.Millisecond, nil
	})
	l.start(context.Background())
	l.add("f")
	select {
	case <-second:
	case <-time.After(2 * time.Second):
		t.Fatal("the requested re-diff never ran")
	}
}

// TestLoopAfterDeliversLater: a delayed add waits as a pending timer, not
// a queued name, until it comes due, and then its pass runs.
func TestLoopAfterDeliversLater(t *testing.T) {
	ran := make(chan string, 1)
	l := newTestLoop(t, func(_ context.Context, name string) (time.Duration, error) {
		ran <- name
		return 0, nil
	})
	l.start(context.Background())
	l.after("slow", 30*time.Millisecond)
	l.mu.Lock()
	queued, pending := len(l.queue), len(l.timers)
	l.mu.Unlock()
	if queued != 0 || pending != 1 {
		t.Fatalf("before the delay: %d queued, %d pending, want 0 and 1", queued, pending)
	}
	select {
	case name := <-ran:
		if name != "slow" {
			t.Fatalf("pass ran %q, want slow", name)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the delayed name never ran")
	}
}

// TestLoopStopDrains stops the loop while one pass runs and another name
// waits: Stop returns after both, cancels pending delays, and refuses
// later names.
func TestLoopStopDrains(t *testing.T) {
	var mu sync.Mutex
	var ran []string
	entered, release := make(chan struct{}), make(chan struct{})
	l := newTestLoop(t, func(_ context.Context, name string) (time.Duration, error) {
		if name == "slow" {
			close(entered)
			<-release
		}
		mu.Lock()
		ran = append(ran, name)
		mu.Unlock()
		return 0, nil
	})
	l.add("slow")
	l.add("queued")
	l.after("delayed", time.Hour)
	l.start(context.Background())
	<-entered
	go func() {
		time.Sleep(10 * time.Millisecond)
		close(release)
	}()
	l.stop()
	if fmt.Sprint(ran) != "[slow queued]" {
		t.Fatalf("passes before Stop returned = %v, want [slow queued]", ran)
	}
	l.mu.Lock()
	pending := len(l.timers)
	l.mu.Unlock()
	if pending != 0 {
		t.Fatalf("%d delays still pending after Stop", pending)
	}
	if l.add("late") {
		t.Fatal("a name was accepted after Stop")
	}
}

// TestLoopStopDropsDelayed stops the loop with one name queued and one
// delayed: the queued one runs before Stop returns, the delayed one never
// does, and neither an add nor a delay is accepted afterwards.
func TestLoopStopDropsDelayed(t *testing.T) {
	var mu sync.Mutex
	var ran []string
	l := newTestLoop(t, func(_ context.Context, name string) (time.Duration, error) {
		mu.Lock()
		ran = append(ran, name)
		mu.Unlock()
		return 0, nil
	})
	l.add("ready")
	l.after("later", 20*time.Millisecond)
	l.start(context.Background())
	l.stop()
	if l.add("rejected") {
		t.Fatal("a name was accepted after Stop")
	}
	l.after("rejected-delay", time.Millisecond)
	l.mu.Lock()
	pending := len(l.timers)
	l.mu.Unlock()
	if pending != 0 {
		t.Fatalf("%d delays pending after Stop, want 0", pending)
	}
	time.Sleep(50 * time.Millisecond) // past both delays
	mu.Lock()
	defer mu.Unlock()
	if fmt.Sprint(ran) != "[ready]" {
		t.Fatalf("passes = %v, want [ready]", ran)
	}
}

// TestLoopContextCancelStops: cancelling the start context ends the loop
// without Stop, and later names are refused.
func TestLoopContextCancelStops(t *testing.T) {
	ran := make(chan struct{}, 1)
	l := newTestLoop(t, func(context.Context, string) (time.Duration, error) {
		ran <- struct{}{}
		return time.Hour, nil
	})
	ctx, cancel := context.WithCancel(context.Background())
	l.start(ctx)
	l.add("f")
	<-ran
	cancel()
	select {
	case <-l.done:
	case <-time.After(2 * time.Second):
		t.Fatal("the loop outlived its context")
	}
	if l.add("post") {
		t.Fatal("a name was accepted after cancellation")
	}
}

// TestLoopTimerFiringAfterStopRunsNoPass holds the loop's lock while a
// delay comes due, so its timer fires and then waits, and stops the loop
// meanwhile: the late timer must queue nothing.
func TestLoopTimerFiringAfterStopRunsNoPass(t *testing.T) {
	var calls atomic.Int32
	l := newTestLoop(t, func(context.Context, string) (time.Duration, error) {
		calls.Add(1)
		return 0, nil
	})
	l.start(context.Background())
	l.after("f", time.Millisecond)
	l.mu.Lock()
	time.Sleep(20 * time.Millisecond) // the timer fires and waits for l.mu
	l.shutdown()
	l.mu.Unlock()
	l.stop()
	// The blocked callback is not observable until it has run, so give it
	// the lock for a while.
	time.Sleep(10 * time.Millisecond)
	l.mu.Lock()
	queued := len(l.queue)
	l.mu.Unlock()
	if queued != 0 || calls.Load() != 0 {
		t.Fatalf("a timer that fired after Stop queued %d name(s) and ran %d pass(es)", queued, calls.Load())
	}
}

// TestLoopReconcilesEachNameOnceAndForgets: two names added once run one
// pass each, and a fleet that never failed has no requeues.
func TestLoopReconcilesEachNameOnceAndForgets(t *testing.T) {
	var calls atomic.Int32
	done := make(chan string, 2)
	l := newTestLoop(t, func(_ context.Context, name string) (time.Duration, error) {
		calls.Add(1)
		done <- name
		return 0, nil
	})
	l.start(context.Background())
	l.add("a")
	l.add("b")
	got := map[string]bool{}
	for i := 0; i < 2; i++ {
		select {
		case name := <-done:
			got[name] = true
		case <-time.After(2 * time.Second):
			t.Fatal("a pass did not run")
		}
	}
	l.stop()
	if !got["a"] || !got["b"] || calls.Load() != 2 {
		t.Fatalf("passes ran for %v, %d in all; want a and b once each", got, calls.Load())
	}
	if n := l.requeues("a"); n != 0 {
		t.Fatalf("a clean fleet has %d requeues, want 0", n)
	}
}

// TestLoopConcurrentApply declares ten fleets from eight goroutines at
// once; under -race it checks the locking, and it asserts that every
// fleet was reconciled and no two passes overlapped.
func TestLoopConcurrentApply(t *testing.T) {
	var inFlight atomic.Int32
	var seen sync.Map
	m := newStubManager(t, func(_ context.Context, name string) (time.Duration, error) {
		if inFlight.Add(1) > 1 {
			t.Error("two passes at once")
		}
		defer inFlight.Add(-1)
		seen.Store(name, true)
		return 0, nil
	})
	m.Start(context.Background())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				name := fmt.Sprintf("f%d", i%10)
				if _, err := m.Store().Apply(Spec{Name: name, NFType: "vGW", SWVersion: fmt.Sprintf("v%d.%d", g, i)}); err != nil {
					t.Error(err)
				}
				_ = m.Requeues(name)
			}
		}(g)
	}
	wg.Wait()
	m.Stop()
	for i := 0; i < 10; i++ {
		if _, ok := seen.Load(fmt.Sprintf("f%d", i)); !ok {
			t.Fatalf("fleet f%d was never reconciled", i)
		}
	}
}
