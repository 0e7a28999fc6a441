package obs

import (
	"context"
	"io"
	"log/slog"
)

// ContextHandler decorates every record with the context's trace, span,
// request and change IDs and its tenant, so one logger wired at startup
// correlates log lines with traces and with a change's journal timeline
// for free. Use the logger's *Context methods (InfoContext, LogAttrs, ...)
// for the decoration to apply.
type ContextHandler struct{ slog.Handler }

// Handle implements slog.Handler.
func (h ContextHandler) Handle(ctx context.Context, r slog.Record) error {
	// Collected first and added in one call: past a record's five inline
	// attributes every AddAttrs may regrow its overflow slice.
	var buf [5]slog.Attr
	attrs := buf[:0]
	if sp := FromContext(ctx); sp != nil {
		attrs = append(attrs, slog.String("trace_id", sp.TraceID()), slog.String("span_id", sp.SpanID()))
	}
	if id := RequestID(ctx); id != "" {
		attrs = append(attrs, slog.String("request_id", id))
	}
	if id := ChangeID(ctx); id != "" {
		attrs = append(attrs, slog.String("change_id", id))
	}
	if t := Tenant(ctx); t != "" {
		attrs = append(attrs, slog.String("tenant", t))
	}
	r.AddAttrs(attrs...)
	return h.Handler.Handle(ctx, r)
}

// WithAttrs implements slog.Handler.
func (h ContextHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return ContextHandler{h.Handler.WithAttrs(attrs)}
}

// WithGroup implements slog.Handler.
func (h ContextHandler) WithGroup(name string) slog.Handler {
	return ContextHandler{h.Handler.WithGroup(name)}
}

// NewLogger builds a structured logger writing text (format "text") or
// JSON (format "json") records at the given level, decorated by
// ContextHandler.
func NewLogger(w io.Writer, level slog.Leveler, format string) *slog.Logger {
	opts := &slog.HandlerOptions{Level: level}
	var h slog.Handler
	if format == "json" {
		h = slog.NewJSONHandler(w, opts)
	} else {
		h = slog.NewTextHandler(w, opts)
	}
	return slog.New(ContextHandler{h})
}

// ParseLevel maps debug|info|warn|error onto slog levels (default info).
func ParseLevel(s string) slog.Level {
	switch s {
	case "debug":
		return slog.LevelDebug
	case "warn":
		return slog.LevelWarn
	case "error":
		return slog.LevelError
	}
	return slog.LevelInfo
}

type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (h discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return h }
func (h discardHandler) WithGroup(string) slog.Handler           { return h }

// NopLogger returns a logger that discards everything — the default for
// library engines, which stay silent unless a caller injects a real
// logger.
func NopLogger() *slog.Logger { return slog.New(discardHandler{}) }
