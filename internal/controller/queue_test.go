package controller

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestQueueFIFOOrderAndDedup(t *testing.T) {
	q := NewQueue("t-fifo", nil)
	q.Add("a")
	q.Add("b")
	q.Add("a") // dedup: already queued
	q.Add("c")
	if got := q.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3 (duplicate deduped)", got)
	}
	for _, want := range []string{"a", "b", "c"} {
		key, shutdown := q.Get()
		if shutdown || key != want {
			t.Fatalf("Get = (%q, %v), want (%q, false)", key, shutdown, want)
		}
		q.Done(key)
	}
}

func TestQueueRedirtyWhileProcessing(t *testing.T) {
	q := NewQueue("t-redirty", nil)
	q.Add("k")
	key, _ := q.Get()
	// Re-adding while processing must not deliver concurrently...
	q.Add("k")
	q.Add("k")
	if got := q.Len(); got != 0 {
		t.Fatalf("Len = %d while processing, want 0", got)
	}
	// ...but exactly one follow-up pass runs after Done.
	q.Done(key)
	if got := q.Len(); got != 1 {
		t.Fatalf("Len = %d after Done, want 1 redelivery", got)
	}
	key2, _ := q.Get()
	if key2 != "k" {
		t.Fatalf("redelivered %q, want k", key2)
	}
	q.Done(key2)
	if got := q.Len(); got != 0 {
		t.Fatalf("Len = %d, want 0 (single redelivery)", got)
	}
}

func TestQueueAddAfterDeliversLater(t *testing.T) {
	q := NewQueue("t-delay", nil)
	q.AddAfter("slow", 30*time.Millisecond)
	if got := q.Len(); got != 0 {
		t.Fatalf("Len = %d, want 0 (delayed key not ready yet)", got)
	}
	if got := q.WaitingLen(); got != 1 {
		t.Fatalf("WaitingLen = %d, want 1", got)
	}
	key, shutdown := q.Get() // blocks until the waker promotes it
	if shutdown || key != "slow" {
		t.Fatalf("Get = (%q, %v), want (slow, false)", key, shutdown)
	}
}

func TestQueueRateLimitedBackoffGrowsAndForgets(t *testing.T) {
	rl := NewRateLimiter(10*time.Millisecond, 80*time.Millisecond)
	q := NewQueue("t-rl", rl)
	delays := []time.Duration{
		q.AddRateLimited("k"),
		q.AddRateLimited("k"),
		q.AddRateLimited("k"),
		q.AddRateLimited("k"),
	}
	want := []time.Duration{10, 20, 40, 80}
	for i, w := range want {
		if delays[i] != w*time.Millisecond {
			t.Fatalf("delay[%d] = %v, want %dms", i, delays[i], w)
		}
	}
	// The cap holds.
	if d := q.AddRateLimited("k"); d != 80*time.Millisecond {
		t.Fatalf("capped delay = %v, want 80ms", d)
	}
	if n := q.Requeues("k"); n != 5 {
		t.Fatalf("Requeues = %d, want 5", n)
	}
	q.Forget("k")
	if d := rl.When("k"); d != 10*time.Millisecond {
		t.Fatalf("post-Forget delay = %v, want 10ms", d)
	}
}

func TestQueueShutDownDrainsReadyDropsDelayed(t *testing.T) {
	q := NewQueue("t-shutdown", nil)
	q.Add("ready")
	q.AddAfter("later", time.Hour)
	q.ShutDown()
	if q.Add("rejected") {
		t.Fatal("Add accepted after ShutDown")
	}
	key, shutdown := q.Get()
	if shutdown || key != "ready" {
		t.Fatalf("Get = (%q, %v), want ready item drained first", key, shutdown)
	}
	q.Done(key)
	if _, shutdown := q.Get(); !shutdown {
		t.Fatal("Get after drain should report shutdown")
	}
	if got := q.WaitingLen(); got != 0 {
		t.Fatalf("delayed keys survived shutdown: %d", got)
	}
}

// TestQueueConcurrentProducersConsumers exercises the queue from many
// goroutines at once; run under -race it asserts the locking discipline,
// and the count asserts no delivery is lost or duplicated.
func TestQueueConcurrentProducersConsumers(t *testing.T) {
	q := NewQueue("t-conc", nil)
	const producers, perProducer = 8, 50
	var delivered atomic.Int64
	var wg sync.WaitGroup
	seen := make(map[string]bool)
	var mu sync.Mutex
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				key, shutdown := q.Get()
				if shutdown {
					return
				}
				mu.Lock()
				dup := seen[key]
				seen[key] = true
				mu.Unlock()
				if dup {
					t.Errorf("key %q delivered twice", key)
				}
				delivered.Add(1)
				q.Done(key)
			}
		}()
	}
	var pwg sync.WaitGroup
	for p := 0; p < producers; p++ {
		pwg.Add(1)
		go func(p int) {
			defer pwg.Done()
			for i := 0; i < perProducer; i++ {
				q.Add(fmt.Sprintf("p%d-i%d", p, i))
			}
		}(p)
	}
	pwg.Wait()
	// Wait for the ready queue to drain, then stop the workers.
	for q.Len() > 0 {
		time.Sleep(time.Millisecond)
	}
	q.ShutDown()
	wg.Wait()
	if delivered.Load() != producers*perProducer {
		t.Fatalf("delivered %d, want %d", delivered.Load(), producers*perProducer)
	}
}
