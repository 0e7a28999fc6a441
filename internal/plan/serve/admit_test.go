package serve

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestAdmitFairDequeueAcrossTenants(t *testing.T) {
	a := NewAdmitter(AdmitConfig{Workers: 1, QueueLimit: 64, DefaultWeight: 2})
	defer a.Stop()

	var mu sync.Mutex
	var order []string
	record := func(tenant string) func() {
		return func() {
			time.Sleep(2 * time.Millisecond)
			mu.Lock()
			order = append(order, tenant)
			mu.Unlock()
		}
	}

	// Park the worker so both tenants' backlogs build before any fair
	// dequeue pass runs.
	gate := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		a.Submit(context.Background(), "flood", func() { <-gate })
	}()
	waitClaimed(t, a)

	const floodN, politeN = 12, 4
	for i := 0; i < floodN; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := a.Submit(context.Background(), "flood", record("flood")); err != nil {
				t.Error(err)
			}
		}()
	}
	for a.Depth() < floodN {
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < politeN; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := a.Submit(context.Background(), "polite", record("polite")); err != nil {
				t.Error(err)
			}
		}()
	}
	for a.Depth() < floodN+politeN {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	if len(order) != floodN+politeN {
		t.Fatalf("completions = %d", len(order))
	}
	lastPolite := -1
	for i, tenant := range order {
		if tenant == "polite" {
			lastPolite = i
		}
	}
	// Weighted round-robin (weight 2) interleaves: the polite tenant's 4
	// requests finish within the first ~12 completions even though 12
	// flood requests were queued ahead of them. Strict FIFO would place
	// them last.
	if lastPolite == -1 || lastPolite >= len(order)-2 {
		t.Fatalf("polite tenant starved: last completion at %d of %d (%v)",
			lastPolite, len(order), order)
	}
}

func TestAdmitShedQueueFull(t *testing.T) {
	a := NewAdmitter(AdmitConfig{Workers: 1, QueueLimit: 2})
	defer a.Stop()
	gate := make(chan struct{})
	defer close(gate)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); a.Submit(context.Background(), "a", func() { <-gate }) }()
	waitClaimed(t, a)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); a.Submit(context.Background(), "a", func() {}) }()
	}
	for a.Depth() < 2 {
		time.Sleep(time.Millisecond)
	}
	_, err := a.Submit(context.Background(), "b", func() {})
	var se *ShedError
	if !errors.As(err, &se) || se.Reason != ShedQueueFull {
		t.Fatalf("err = %v, want queue_full shed", err)
	}
	if se.RetryAfter < time.Second {
		t.Fatalf("RetryAfter = %s, want >= 1s floor", se.RetryAfter)
	}
}

func TestAdmitShedTenantQuota(t *testing.T) {
	a := NewAdmitter(AdmitConfig{Workers: 1, QueueLimit: 64, TenantQuota: 1})
	defer a.Stop()
	gate := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); a.Submit(context.Background(), "a", func() { <-gate }) }()
	waitClaimed(t, a)
	wg.Add(1)
	go func() { defer wg.Done(); a.Submit(context.Background(), "a", func() {}) }()
	for a.Depth() < 1 {
		time.Sleep(time.Millisecond)
	}
	_, err := a.Submit(context.Background(), "a", func() {})
	var se *ShedError
	if !errors.As(err, &se) || se.Reason != ShedTenantQuota {
		t.Fatalf("err = %v, want tenant_quota shed", err)
	}
	// Another tenant is not affected by a's quota: it queues (no shed)
	// and completes once the worker frees up.
	close(gate)
	if _, err := a.Submit(context.Background(), "b", func() {}); err != nil {
		t.Fatalf("other tenant shed: %v", err)
	}
	wg.Wait()
}

func TestAdmitDeadlineShedAtAdmission(t *testing.T) {
	a := NewAdmitter(AdmitConfig{Workers: 1, QueueLimit: 64})
	defer a.Stop()
	// Teach the EWMA a slow service time.
	if _, err := a.Submit(context.Background(), "a", func() { time.Sleep(80 * time.Millisecond) }); err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	defer close(gate)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); a.Submit(context.Background(), "a", func() { <-gate }) }()
	waitClaimed(t, a)
	wg.Add(1)
	go func() { defer wg.Done(); a.Submit(context.Background(), "a", func() {}) }()
	for a.Depth() < 1 {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, err := a.Submit(ctx, "a", func() { t.Error("deadline-doomed request ran") })
	var se *ShedError
	if !errors.As(err, &se) || se.Reason != ShedDeadline {
		t.Fatalf("err = %v, want deadline shed", err)
	}
}

func TestAdmitAbandonedWhileQueued(t *testing.T) {
	a := NewAdmitter(AdmitConfig{Workers: 1, QueueLimit: 64})
	gate := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); a.Submit(context.Background(), "a", func() { <-gate }) }()
	waitClaimed(t, a)
	ctx, cancel := context.WithCancel(context.Background())
	ran := false
	errc := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := a.Submit(ctx, "a", func() { ran = true })
		errc <- err
	}()
	for a.Depth() < 1 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	close(gate)
	wg.Wait()
	a.Stop()
	if ran {
		t.Fatal("abandoned request ran")
	}
}

func TestAdmitStopFailsQueued(t *testing.T) {
	a := NewAdmitter(AdmitConfig{Workers: 1, QueueLimit: 64, Weights: map[string]int{"a": 1}})
	gate := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); a.Submit(context.Background(), "a", func() { <-gate }) }()
	waitClaimed(t, a)
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := a.Submit(context.Background(), "a", func() {})
			errs <- err
		}()
	}
	for a.Depth() < 2 {
		time.Sleep(time.Millisecond)
	}
	done := make(chan struct{})
	go func() { a.Stop(); close(done) }()
	time.Sleep(5 * time.Millisecond) // Stop is waiting on the in-flight job
	close(gate)
	<-done
	wg.Wait()
	stopped := 0
	for i := 0; i < 2; i++ {
		if err := <-errs; errors.Is(err, ErrStopped) {
			stopped++
		}
	}
	// The weight-1 pass can run at most one more queued job during the
	// drain; at least one must be failed by the sweep.
	if stopped == 0 {
		t.Fatal("no queued request failed with ErrStopped")
	}
	// Submit after Stop runs inline.
	ran := false
	if _, err := a.Submit(context.Background(), "a", func() { ran = true }); err != nil || !ran {
		t.Fatalf("inline run after stop: ran=%v err=%v", ran, err)
	}
}

// waitClaimed waits until the admitter's queue is drained (the parked job
// has been handed to a worker).
func waitClaimed(t *testing.T, a *Admitter) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for a.Depth() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never claimed the parked job")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(5 * time.Millisecond)
}

// TestAdmitAbandonedFreesItsPlace: a request whose submitter gave up stops
// counting against QueueLimit at once, not when a worker reaches it.
func TestAdmitAbandonedFreesItsPlace(t *testing.T) {
	a := NewAdmitter(AdmitConfig{Workers: 1, QueueLimit: 2})
	defer a.Stop()
	gate := make(chan struct{})
	open := sync.OnceFunc(func() { close(gate) })
	defer open()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); a.Submit(context.Background(), "a", func() { <-gate }) }()
	waitClaimed(t, a)
	for i := 0; i < 2; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		_, err := a.Submit(ctx, "b", func() { t.Error("abandoned request ran") })
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want the deadline", err)
		}
	}
	if d := a.Depth(); d != 0 {
		t.Errorf("Depth() = %d with nobody waiting", d)
	}
	ran := make(chan error, 1)
	go func() {
		_, err := a.Submit(context.Background(), "c", func() {})
		ran <- err
	}()
	for a.Depth() < 1 {
		time.Sleep(time.Millisecond)
	}
	open()
	if err := <-ran; err != nil {
		t.Fatalf("fresh tenant behind two abandoned requests: %v", err)
	}
	wg.Wait()
}

// TestAdmitOneTenantIsServedByOneWorker pins the rule the ring keeps from
// the deduplicating queue it replaced: a tenant's backlog is drained by one
// worker at a time, so Workers only spreads distinct tenants.
func TestAdmitOneTenantIsServedByOneWorker(t *testing.T) {
	for _, tc := range []struct {
		tenants []string
		peak    int64
	}{
		{[]string{"a"}, 1},
		{[]string{"a", "b"}, 2},
	} {
		a := NewAdmitter(AdmitConfig{Workers: 2, QueueLimit: 64})
		const n = 8
		gate := make(chan struct{})
		var cur, peak atomic.Int64
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				a.Submit(context.Background(), tc.tenants[i%len(tc.tenants)], func() {
					c := cur.Add(1)
					for {
						p := peak.Load()
						if c <= p || peak.CompareAndSwap(p, c) {
							break
						}
					}
					<-gate
					cur.Add(-1)
				})
			}()
		}
		// Every request is either parked on the gate or queued behind one.
		for int64(a.Depth())+cur.Load() < n || cur.Load() < tc.peak {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(5 * time.Millisecond)
		close(gate)
		wg.Wait()
		a.Stop()
		if got := peak.Load(); got != tc.peak {
			t.Fatalf("tenants %v: peak in flight = %d, want %d", tc.tenants, got, tc.peak)
		}
	}
}

// TestAdmitWeightsSetTheBatch: with both tenants backlogged and one worker,
// a tenant's weight is the number of its requests that complete before the
// turn passes on.
func TestAdmitWeightsSetTheBatch(t *testing.T) {
	a := NewAdmitter(AdmitConfig{Workers: 1, QueueLimit: 64, DefaultWeight: 1, Weights: map[string]int{"a": 3}})
	defer a.Stop()
	gate := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); a.Submit(context.Background(), "parked", func() { <-gate }) }()
	waitClaimed(t, a)

	var mu sync.Mutex
	var order strings.Builder
	submit := func(tenant string, n, depth int) {
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				a.Submit(context.Background(), tenant, func() {
					mu.Lock()
					order.WriteString(tenant)
					mu.Unlock()
				})
			}()
		}
		for a.Depth() < depth {
			time.Sleep(time.Millisecond)
		}
	}
	submit("a", 6, 6) // a joins the ring first
	submit("b", 2, 8)
	close(gate)
	wg.Wait()
	if got := order.String(); got != "aaabaaab" {
		t.Fatalf("completion order %q, want aaabaaab", got)
	}
}

// TestAdmitterLeavesNoGoroutines: Stop ends every worker, after requests
// that ran, one that was abandoned and one that Stop itself failed.
func TestAdmitterLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	a := NewAdmitter(AdmitConfig{Workers: 3, QueueLimit: 64})
	for _, tenant := range []string{"a", "b", "a"} {
		if _, err := a.Submit(context.Background(), tenant, func() {}); err != nil {
			t.Fatal(err)
		}
	}
	gate := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); a.Submit(context.Background(), "a", func() { <-gate }) }()
	waitClaimed(t, a)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	a.Submit(ctx, "a", func() {}) // abandoned behind the parked request
	cancel()
	go func() { defer wg.Done(); a.Submit(context.Background(), "a", func() {}) }()
	for a.Depth() < 1 {
		time.Sleep(time.Millisecond)
	}
	stopped := make(chan struct{})
	go func() { a.Stop(); close(stopped) }()
	time.Sleep(5 * time.Millisecond) // Stop is waiting on the parked request
	close(gate)
	<-stopped
	wg.Wait()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Stop, %d before the admitter existed", runtime.NumGoroutine(), before)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// BenchmarkAdmitSubmit is the cost of one trip through admission — queue,
// hand to a worker, wake the submitter — around a request that does nothing.
func BenchmarkAdmitSubmit(b *testing.B) {
	for _, bc := range []struct {
		name    string
		tenants []string
	}{
		{"one-tenant", []string{"t0"}},
		{"four-tenants", []string{"t0", "t1", "t2", "t3"}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			a := NewAdmitter(AdmitConfig{Workers: 2, QueueLimit: 1 << 20})
			defer a.Stop()
			var next atomic.Int64
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				tenant := bc.tenants[int(next.Add(1))%len(bc.tenants)]
				for pb.Next() {
					if _, err := a.Submit(context.Background(), tenant, func() {}); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}
