package controller

import (
	"container/heap"
	"sync"
	"time"
)

// Queue is a rate-limited string work queue in the client-go workqueue
// mold: items are keys naming managed objects, ready items are delivered
// FIFO, a key is never handed to two workers at once, and re-adding a key
// that is being processed marks it dirty so it reconciles exactly once
// more after the in-flight pass finishes. Delayed delivery (AddAfter) and
// per-item exponential backoff (AddRateLimited) feed requeues back in
// without busy loops.
type Queue struct {
	name    string
	limiter *RateLimiter

	mu         sync.Mutex
	cond       *sync.Cond
	items      []string
	queued     map[string]bool // ready: in items
	processing map[string]bool // handed to a worker
	redo       map[string]bool // re-added while processing
	waiting    delayedItems
	wakerUp    bool
	wakerCh    chan struct{}
	down       bool
}

// NewQueue returns a deduplicating work queue named for metrics. A nil
// limiter gets NewRateLimiter defaults (10ms base, 15s cap).
func NewQueue(name string, limiter *RateLimiter) *Queue {
	if limiter == nil {
		limiter = NewRateLimiter(0, 0)
	}
	q := &Queue{
		name:       name,
		limiter:    limiter,
		queued:     map[string]bool{},
		processing: map[string]bool{},
		redo:       map[string]bool{},
		wakerCh:    make(chan struct{}, 1),
	}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// Add enqueues a key for processing. A key already waiting is dropped (it
// will be processed anyway) and a key currently processing is marked for
// one follow-up pass. It reports whether the queue accepted the key; false
// means the queue is shut down and the key was discarded.
func (q *Queue) Add(key string) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.addLocked(key)
}

func (q *Queue) addLocked(key string) bool {
	if q.down {
		return false
	}
	if q.queued[key] {
		return true
	}
	if q.processing[key] {
		q.redo[key] = true
		return true
	}
	q.queued[key] = true
	q.items = append(q.items, key)
	q.setDepth()
	q.cond.Signal()
	return true
}

// AddAfter delivers the key once the delay elapses (immediately for
// non-positive delays). Delayed keys are dropped on shutdown.
func (q *Queue) AddAfter(key string, delay time.Duration) {
	if delay <= 0 {
		q.Add(key)
		return
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.down {
		return
	}
	heap.Push(&q.waiting, delayedItem{key: key, at: time.Now().Add(delay)})
	if !q.wakerUp {
		q.wakerUp = true
		go q.waker()
	}
	q.wake()
}

// AddRateLimited requeues the key after its per-item exponential backoff
// and returns the delay applied, so callers can log the schedule.
func (q *Queue) AddRateLimited(key string) time.Duration {
	d := q.limiter.When(key)
	q.AddAfter(key, d)
	return d
}

// Forget clears the key's backoff history after a clean reconcile.
func (q *Queue) Forget(key string) { q.limiter.Forget(key) }

// Requeues reports the key's rate-limited requeue count since the last
// Forget.
func (q *Queue) Requeues(key string) int { return q.limiter.Requeues(key) }

// Get blocks until a key is ready (returning it with shutdown=false) or
// the queue is shut down and drained (shutdown=true). The caller must pair
// every Get with Done.
func (q *Queue) Get() (key string, shutdown bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && !q.down {
		q.cond.Wait()
	}
	if len(q.items) == 0 {
		return "", true
	}
	key = q.items[0]
	q.items = q.items[1:]
	delete(q.queued, key)
	q.processing[key] = true
	q.setDepth()
	return key, false
}

// Done marks a key's processing pass finished; if the key was re-added in
// the meantime it goes straight back into the ready queue.
func (q *Queue) Done(key string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	delete(q.processing, key)
	if q.redo[key] {
		delete(q.redo, key)
		q.addLocked(key)
	}
}

// Len reports the number of ready (undelayed) keys.
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

// WaitingLen reports the number of delayed keys not yet ready.
func (q *Queue) WaitingLen() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.waiting.Len()
}

// ShutDown stops the queue accepting work and drops delayed keys; ready
// keys are still delivered (drain semantics), after which Get reports
// shutdown. It is idempotent.
func (q *Queue) ShutDown() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.down = true
	q.waiting = nil
	q.cond.Broadcast()
	q.wake()
}

// setDepth mirrors the ready depth into the queue-depth gauge; callers
// hold q.mu.
func (q *Queue) setDepth() {
	metricQueueDepth.With(q.name).Set(float64(len(q.items)))
}

// wake nudges the waker goroutine so it re-reads the earliest deadline.
func (q *Queue) wake() {
	select {
	case q.wakerCh <- struct{}{}:
	default:
	}
}

// waker moves delayed keys into the ready queue as their deadlines pass.
// It runs only while delayed keys exist and exits on shutdown or when the
// delay heap empties.
func (q *Queue) waker() {
	for {
		q.mu.Lock()
		if q.down || q.waiting.Len() == 0 {
			q.wakerUp = false
			q.mu.Unlock()
			return
		}
		d := time.Until(q.waiting[0].at)
		if d <= 0 {
			it := heap.Pop(&q.waiting).(delayedItem)
			q.addLocked(it.key)
			q.mu.Unlock()
			continue
		}
		q.mu.Unlock()
		t := time.NewTimer(d)
		select {
		case <-t.C:
		case <-q.wakerCh:
			t.Stop()
		}
	}
}

// delayedItem is one (key, deadline) entry of the delay heap.
type delayedItem struct {
	key string
	at  time.Time
}

// delayedItems is a min-heap of delayed keys ordered by deadline.
type delayedItems []delayedItem

// Len implements heap.Interface.
func (h delayedItems) Len() int { return len(h) }

// Less implements heap.Interface (earliest deadline first).
func (h delayedItems) Less(i, j int) bool { return h[i].at.Before(h[j].at) }

// Swap implements heap.Interface.
func (h delayedItems) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

// Push implements heap.Interface.
func (h *delayedItems) Push(x any) { *h = append(*h, x.(delayedItem)) }

// Pop implements heap.Interface.
func (h *delayedItems) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}
