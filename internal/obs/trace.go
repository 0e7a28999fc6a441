// Package obs is CORNET's dependency-free telemetry layer: request-scoped
// trace IDs with a span tree, a Prometheus-text metrics registry, and
// context-aware structured logging built on log/slog.
//
// The paper's CORNET deployment leans on per-building-block logging and
// execution visibility so operations teams can pause, resume, and decide
// rollbacks mid-change (Section 4, Fig. 6). This package supplies the
// plumbing that the planner, the orchestrator, the verifier, and
// cmd/cornetd instrument themselves with:
//
//   - Tracing is explicit and request-scoped: StartTrace roots a span tree
//     in a context; StartSpan attaches children. Off-trace (no root in the
//     context) every span operation is a no-op on a nil *Span, so
//     instrumented hot paths cost nothing unless a caller asked for a
//     trace (?trace=1, -trace).
//   - Metrics are always on, registered in the process-wide Default
//     registry and exposed in Prometheus text format (GET /metrics).
//   - Logging decorates slog records with the active trace, span, and
//     request IDs pulled from the context.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"sync"
	"time"
)

type spanKey struct{}

type requestIDKey struct{}

// newID returns n random bytes hex-encoded (crypto/rand never fails on
// supported platforms; a short read would surface as a shorter id, never
// as a panic in the request path).
func newID(n int) string {
	b := make([]byte, n)
	_, _ = rand.Read(b)
	return hex.EncodeToString(b)
}

// NewRequestID mints a fresh request identifier.
func NewRequestID() string { return newID(8) }

// WithRequestID returns a context carrying the request id; the logging
// handler and StartTrace pick it up.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey{}, id)
}

// RequestID returns the context's request id ("" when none).
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// Span is one timed operation in a trace: a name, wall-clock bounds, an
// error status, free-form attributes, point events, and child spans. All
// methods are safe for concurrent use and are no-ops on a nil receiver, so
// instrumentation sites never need to check whether tracing is active.
type Span struct {
	mu *sync.Mutex // shared by every span of one trace

	traceID  string
	spanID   string
	name     string
	start    time.Time
	end      time.Time
	err      string
	attrs    map[string]any
	events   []spanEvent
	children []*Span
}

type spanEvent struct {
	at    time.Time
	msg   string
	attrs map[string]any
}

// StartTrace begins a new trace rooted at name and returns a context
// carrying the root span. If the context carries a request id (see
// WithRequestID) it is recorded as the root's request_id attribute.
func StartTrace(ctx context.Context, name string) (context.Context, *Span) {
	sp := &Span{
		mu:      &sync.Mutex{},
		traceID: newID(8),
		spanID:  newID(4),
		name:    name,
		start:   time.Now(),
	}
	if id := RequestID(ctx); id != "" {
		sp.attrs = map[string]any{"request_id": id}
	}
	return context.WithValue(ctx, spanKey{}, sp), sp
}

// StartSpan begins a child span under the context's active span and
// returns a context carrying it. When the context has no active trace it
// returns ctx unchanged and a nil span whose methods all no-op, making
// off-trace instrumentation free.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := FromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	sp := &Span{
		mu:      parent.mu,
		traceID: parent.traceID,
		spanID:  newID(4),
		name:    name,
		start:   time.Now(),
	}
	parent.mu.Lock()
	parent.children = append(parent.children, sp)
	parent.mu.Unlock()
	return context.WithValue(ctx, spanKey{}, sp), sp
}

// FromContext returns the context's active span (nil when off-trace).
func FromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// TraceID returns the trace id shared by every span of the tree.
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.traceID
}

// SpanID returns this span's id.
func (s *Span) SpanID() string {
	if s == nil {
		return ""
	}
	return s.spanID
}

// Name returns the span's name.
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// SetAttr records a key/value attribute on the span.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.attrs == nil {
		s.attrs = map[string]any{}
	}
	s.attrs[key] = value
}

// Event records a timestamped point annotation with optional alternating
// key/value attribute pairs (slog style).
func (s *Span) Event(msg string, kv ...any) {
	if s == nil {
		return
	}
	ev := spanEvent{at: time.Now(), msg: msg, attrs: attrsFromKV(kv)}
	s.mu.Lock()
	s.events = append(s.events, ev)
	s.mu.Unlock()
}

// Fail marks the span failed with the error's message. A nil error is
// ignored.
func (s *Span) Fail(err error) {
	if s == nil || err == nil {
		return
	}
	s.mu.Lock()
	s.err = err.Error()
	s.mu.Unlock()
}

// End closes the span. The first End wins; later calls are ignored, so
// deferred Ends compose with explicit ones.
func (s *Span) End() {
	if s == nil {
		return
	}
	now := time.Now()
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = now
	}
	s.mu.Unlock()
}

func attrsFromKV(kv []any) map[string]any {
	if len(kv) == 0 {
		return nil
	}
	m := make(map[string]any, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		k, ok := kv[i].(string)
		if !ok {
			continue
		}
		m[k] = kv[i+1]
	}
	return m
}

// SpanExport is the JSON form of a span tree, produced by Export.
type SpanExport struct {
	TraceID    string         `json:"trace_id,omitempty"` // root only
	SpanID     string         `json:"span_id"`
	Name       string         `json:"name"`
	Start      time.Time      `json:"start"`
	DurationNS int64          `json:"duration_ns"`
	Error      string         `json:"error,omitempty"`
	Attrs      map[string]any `json:"attrs,omitempty"`
	Events     []EventExport  `json:"events,omitempty"`
	Children   []*SpanExport  `json:"children,omitempty"`
}

// EventExport is the JSON form of a span event; the offset is relative to
// the span's start.
type EventExport struct {
	OffsetNS int64          `json:"offset_ns"`
	Msg      string         `json:"msg"`
	Attrs    map[string]any `json:"attrs,omitempty"`
}

// Export snapshots the span tree as a JSON-marshalable value. Spans still
// open are exported with their duration measured to now. Export is safe to
// call concurrently with ongoing span activity elsewhere in the tree.
func (s *Span) Export() *SpanExport {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.exportLocked(true)
}

func (s *Span) exportLocked(root bool) *SpanExport {
	end := s.end
	if end.IsZero() {
		end = time.Now()
	}
	out := &SpanExport{
		SpanID:     s.spanID,
		Name:       s.name,
		Start:      s.start,
		DurationNS: end.Sub(s.start).Nanoseconds(),
		Error:      s.err,
	}
	if root {
		out.TraceID = s.traceID
	}
	if len(s.attrs) > 0 {
		out.Attrs = make(map[string]any, len(s.attrs))
		for k, v := range s.attrs {
			out.Attrs[k] = v
		}
	}
	for _, ev := range s.events {
		out.Events = append(out.Events, EventExport{
			OffsetNS: ev.at.Sub(s.start).Nanoseconds(),
			Msg:      ev.msg,
			Attrs:    ev.attrs,
		})
	}
	for _, c := range s.children {
		out.Children = append(out.Children, c.exportLocked(false))
	}
	return out
}

// JSON renders the exported span tree as indented JSON, the format
// cornet-plan -trace writes and cornetd ?trace=1 inlines.
func (s *Span) JSON() ([]byte, error) {
	return json.MarshalIndent(s.Export(), "", "  ")
}

// Find returns the first span named name in a depth-first walk of the
// exported tree (the export itself included), or nil.
func (e *SpanExport) Find(name string) *SpanExport {
	if e == nil {
		return nil
	}
	if e.Name == name {
		return e
	}
	for _, c := range e.Children {
		if hit := c.Find(name); hit != nil {
			return hit
		}
	}
	return nil
}

// FindAll returns every span named name in depth-first order.
func (e *SpanExport) FindAll(name string) []*SpanExport {
	if e == nil {
		return nil
	}
	var out []*SpanExport
	if e.Name == name {
		out = append(out, e)
	}
	for _, c := range e.Children {
		out = append(out, c.FindAll(name)...)
	}
	return out
}
