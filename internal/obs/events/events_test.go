package events

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestPublishQueryFilter(t *testing.T) {
	j := NewJournal(64)
	j.Publish(Event{Type: TypeCacheHit, Source: "serve", ChangeID: "chg-a", Tenant: "t1"})
	j.Publish(Event{Type: TypeShed, Source: "admission", ChangeID: "chg-b", Tenant: "t2",
		Fields: map[string]any{"reason": "queue_full"}})
	j.Publish(Event{Type: TypeWfStart, Source: "orchestrator", ChangeID: "chg-a", Tenant: "t1"})

	if got := len(j.Query(Filter{})); got != 3 {
		t.Fatalf("all events = %d, want 3", got)
	}
	byChange := j.Query(Filter{ChangeID: "chg-a"})
	if len(byChange) != 2 || byChange[0].Type != TypeCacheHit || byChange[1].Type != TypeWfStart {
		t.Fatalf("chg-a timeline = %+v", byChange)
	}
	if got := j.Query(Filter{Types: []Type{TypeShed}}); len(got) != 1 || got[0].Fields["reason"] != "queue_full" {
		t.Fatalf("shed query = %+v", got)
	}
	if got := j.Query(Filter{Tenant: "t2"}); len(got) != 1 || got[0].Source != "admission" {
		t.Fatalf("tenant query = %+v", got)
	}
	if got := j.Query(Filter{SinceSeq: 2}); len(got) != 1 || got[0].Seq != 3 {
		t.Fatalf("since query = %+v", got)
	}
	if got := j.Query(Filter{Limit: 2}); len(got) != 2 {
		t.Fatalf("limited query = %d events", len(got))
	}
}

func TestRingOverwritesOldest(t *testing.T) {
	j := NewJournal(16)
	for i := 0; i < 40; i++ {
		j.Publish(Event{Type: TypeCacheMiss, Source: "serve"})
	}
	got := j.Query(Filter{})
	if len(got) != 16 || got[0].Seq != 25 || got[15].Seq != 40 {
		t.Fatalf("retained window = seqs %d..%d (%d events), want 25..40",
			got[0].Seq, got[len(got)-1].Seq, len(got))
	}
	if j.LastSeq() != 40 {
		t.Fatalf("LastSeq = %d, want 40", j.LastSeq())
	}
}

// TestConcurrentPublishersAndSubscriber hammers the journal from many
// goroutines while a subscriber drains and queries race along; run with
// -race (the Makefile race target covers this package).
func TestConcurrentPublishersAndSubscriber(t *testing.T) {
	j := NewJournal(256)
	const publishers, perPublisher = 8, 200
	sub := j.Subscribe(Filter{}, publishers*perPublisher)
	defer sub.Close()

	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perPublisher; i++ {
				j.Publish(Event{
					Type:     TypeBlockRetry,
					Source:   "orchestrator",
					ChangeID: fmt.Sprintf("chg-%d", p),
					Fields:   map[string]any{"attempt": i},
				})
			}
		}(p)
	}
	queryDone := make(chan struct{})
	go func() {
		defer close(queryDone)
		for i := 0; i < 50; i++ {
			j.Query(Filter{ChangeID: "chg-0"})
			j.LastSeq()
		}
	}()
	wg.Wait()
	<-queryDone

	received := 0
	seen := uint64(0)
drain:
	for {
		select {
		case e := <-sub.C:
			if e.Seq <= seen {
				t.Fatalf("out-of-order delivery: %d after %d", e.Seq, seen)
			}
			seen = e.Seq
			received++
		default:
			break drain
		}
	}
	if received+int(sub.Dropped()) != publishers*perPublisher {
		t.Fatalf("received %d + dropped %d != published %d",
			received, sub.Dropped(), publishers*perPublisher)
	}
	if j.LastSeq() != publishers*perPublisher {
		t.Fatalf("LastSeq = %d, want %d", j.LastSeq(), publishers*perPublisher)
	}
}

func TestSlowSubscriberDropsInsteadOfBlocking(t *testing.T) {
	j := NewJournal(64)
	sub := j.Subscribe(Filter{}, 2)
	defer sub.Close()
	for i := 0; i < 10; i++ {
		j.Publish(Event{Type: TypeIncumbent, Source: "engine"})
	}
	if sub.Dropped() != 8 {
		t.Fatalf("Dropped = %d, want 8", sub.Dropped())
	}
	if len(sub.C) != 2 {
		t.Fatalf("buffered = %d, want 2", len(sub.C))
	}
}

func TestWatchReplayHasNoGapOrDuplicate(t *testing.T) {
	j := NewJournal(64)
	j.Publish(Event{Type: TypeCacheHit, Source: "serve", ChangeID: "chg-x"})
	j.Publish(Event{Type: TypeCacheMiss, Source: "serve", ChangeID: "chg-x"})
	past, sub := j.Watch(Filter{ChangeID: "chg-x"}, 8)
	defer sub.Close()
	j.Publish(Event{Type: TypeWfEnd, Source: "orchestrator", ChangeID: "chg-x"})
	if len(past) != 2 {
		t.Fatalf("backlog = %d, want 2", len(past))
	}
	select {
	case e := <-sub.C:
		if e.Type != TypeWfEnd || e.Seq != 3 {
			t.Fatalf("live event = %+v", e)
		}
	case <-time.After(time.Second):
		t.Fatal("live event not delivered")
	}
}

func TestHandlerQueryAndValidation(t *testing.T) {
	j := NewJournal(64)
	j.Publish(Event{Type: TypeShed, Source: "admission", Tenant: "t9"})
	j.Publish(Event{Type: TypeWfStart, Source: "orchestrator", ChangeID: "chg-q"})
	srv := httptest.NewServer(j.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "?source=admission")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got []Event
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Tenant != "t9" {
		t.Fatalf("filtered events = %+v", got)
	}

	for _, q := range []string{"?bogus=1", "?since=abc", "?limit=-1", "?follow=maybe"} {
		resp, err := http.Get(srv.URL + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s = %s, want 400", q, resp.Status)
		}
	}
	post, err := http.Post(srv.URL, "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST status = %s, want 405", post.Status)
	}
}

// TestSSEFollowStreamsLiveEvents subscribes over HTTP with ?follow=1 while
// concurrent publishers append, asserting the stream carries both the
// replayed backlog and live events in order.
func TestSSEFollowStreamsLiveEvents(t *testing.T) {
	j := NewJournal(256)
	j.Publish(Event{Type: TypeCacheHit, Source: "serve", ChangeID: "chg-sse"})
	srv := httptest.NewServer(j.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "?follow=1&change_id=chg-sse")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	const live = 20
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < live/4; i++ {
				j.Publish(Event{Type: TypeBlockRetry, Source: "orchestrator", ChangeID: "chg-sse"})
				j.Publish(Event{Type: TypeIncumbent, Source: "engine", ChangeID: "other"})
			}
		}(p)
	}

	scanner := bufio.NewScanner(resp.Body)
	var events []Event
	deadline := time.After(10 * time.Second)
	lines := make(chan string)
	go func() {
		for scanner.Scan() {
			lines <- scanner.Text()
		}
		close(lines)
	}()
	for len(events) < live+1 {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatalf("stream closed after %d events", len(events))
			}
			if !strings.HasPrefix(line, "data: ") {
				continue
			}
			var e Event
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &e); err != nil {
				t.Fatalf("bad SSE payload %q: %v", line, err)
			}
			events = append(events, e)
		case <-deadline:
			t.Fatalf("timed out after %d events, want %d", len(events), live+1)
		}
	}
	wg.Wait()
	if events[0].Type != TypeCacheHit {
		t.Fatalf("first streamed event = %+v, want replayed backlog", events[0])
	}
	for i, e := range events {
		if e.ChangeID != "chg-sse" {
			t.Fatalf("event %d leaked through the filter: %+v", i, e)
		}
		if i > 0 && e.Seq <= events[i-1].Seq {
			t.Fatalf("events out of order: %d after %d", e.Seq, events[i-1].Seq)
		}
	}
}
