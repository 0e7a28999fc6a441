package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Req; Parent is the id of the span that caused this one (0 = root).
// Times are nanoseconds since the recorder was created.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Req    string `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends; the dispatcher and the
// composer call into it from several goroutines, hence the lock.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

// newRecorder sizes the span slice for a whole traced run, so that growing
// it never lands inside a timed interval.
func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<17)}
}

// now is the recorder's clock: nanoseconds since it was created.
func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// add records a span whose interval the caller measured, and returns its id.
func (r *recorder) add(name, req string, parent int, start, end int64) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Req: req, Start: start, End: end})
	return len(r.spans)
}

// start opens a span and returns its id for end and for children.
func (r *recorder) start(name, req string, parent int) int {
	return r.add(name, req, parent, r.now(), 0)
}

// end closes the span start returned.
func (r *recorder) end(id int) {
	now := r.now()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// time runs fn inside a span.
func (r *recorder) time(name, req string, parent int, fn func()) {
	id := r.start(name, req, parent)
	fn()
	r.end(id)
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// spanKey carries the current span id through a context, so a callee the
// benchmark wraps (the timing Invoker) can name its parent.
type spanKey struct{}

type spanRef struct {
	id  int
	req string
}

func withSpan(ctx context.Context, id int, req string) context.Context {
	return context.WithValue(ctx, spanKey{}, spanRef{id, req})
}

func spanFrom(ctx context.Context) spanRef {
	ref, _ := ctx.Value(spanKey{}).(spanRef)
	return ref
}

// covered returns how many nanoseconds of [start, end) the child intervals
// cover: the length of their union, clipped to the parent. Overlapping and
// nested children count once.
func covered(start, end int64, children []span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		s, e := max(c.Start, start), min(c.End, end)
		if e > s {
			iv = append(iv, [2]int64{s, e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, hi int64
	hi = start
	for _, x := range iv {
		if x[1] <= hi {
			continue
		}
		total += x[1] - max(x[0], hi)
		hi = x[1]
	}
	return total
}

// selfTimes maps each span id to its self time: its duration minus the part
// of that interval its direct children cover.
func selfTimes(spans []span) map[int]int64 {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s.Start, s.End, kids[s.ID])
	}
	return out
}

// writeSpans dumps the spans as one JSON document.
func writeSpans(path string, spans []span) error {
	raw, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
