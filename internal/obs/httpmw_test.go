package obs

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestMiddlewareRequestIDPropagatesIntoSpans(t *testing.T) {
	r := NewRegistry()
	m := NewHTTPMetrics(r)
	var root *Span
	h := m.Middleware("test_route", nil, http.HandlerFunc(func(w http.ResponseWriter, rq *http.Request) {
		// The handler opens a trace the way cornetd's ?trace=1 path does;
		// the middleware's request id must land on the root span.
		_, root = StartTrace(rq.Context(), "handler")
		root.End()
		w.WriteHeader(http.StatusTeapot)
	}))

	req := httptest.NewRequest(http.MethodGet, "/x", nil)
	req.Header.Set("X-Request-ID", "upstream-7")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)

	if got := rec.Header().Get("X-Request-ID"); got != "upstream-7" {
		t.Fatalf("response request id = %q", got)
	}
	if got := root.Export().Attrs["request_id"]; got != "upstream-7" {
		t.Fatalf("span request_id attr = %v", got)
	}

	// A request without the header gets a minted id, echoed back.
	rec2 := httptest.NewRecorder()
	h.ServeHTTP(rec2, httptest.NewRequest(http.MethodGet, "/x", nil))
	if rec2.Header().Get("X-Request-ID") == "" {
		t.Fatal("middleware should mint a request id")
	}

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`cornet_http_requests_total{route="test_route",method="GET",code="418"} 2`,
		`cornet_http_request_duration_seconds_count{route="test_route"} 2`,
		"cornet_http_in_flight_requests 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestMiddlewareAccessLog(t *testing.T) {
	var buf bytes.Buffer
	logger := NewLogger(&buf, ParseLevel("info"), "json")
	m := NewHTTPMetrics(NewRegistry())
	h := m.Middleware("r", logger, http.HandlerFunc(func(w http.ResponseWriter, rq *http.Request) {
		logger.InfoContext(rq.Context(), "inside handler")
	}))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/y", nil))
	out := buf.String()
	if !strings.Contains(out, `"msg":"http request"`) || !strings.Contains(out, `"request_id"`) {
		t.Fatalf("access log missing fields: %s", out)
	}
	if !strings.Contains(out, `"msg":"inside handler"`) {
		t.Fatalf("handler log line missing: %s", out)
	}
}

func TestContextHandlerAddsTraceIDs(t *testing.T) {
	var buf bytes.Buffer
	logger := NewLogger(&buf, ParseLevel("debug"), "text")
	ctx, sp := StartTrace(WithRequestID(httptest.NewRequest("GET", "/", nil).Context(), "rid-1"), "op")
	logger.InfoContext(ctx, "hello")
	sp.End()
	out := buf.String()
	if !strings.Contains(out, "trace_id="+sp.TraceID()) ||
		!strings.Contains(out, "span_id="+sp.SpanID()) ||
		!strings.Contains(out, "request_id=rid-1") {
		t.Fatalf("log line missing ids: %s", out)
	}
	// NopLogger must swallow everything without panicking.
	NopLogger().InfoContext(ctx, "dropped")
}

// A record logged under a change's context can be joined to the change:
// it carries the change id and tenant the journal's events carry, and a
// context without them adds neither key.
func TestContextHandlerAddsChangeIDAndTenant(t *testing.T) {
	var buf bytes.Buffer
	logger := NewLogger(&buf, ParseLevel("info"), "text")
	ctx := WithTenant(WithChangeID(context.Background(), "chg-1"), "team-a")
	logger.InfoContext(ctx, "hello")
	if out := buf.String(); !strings.Contains(out, "change_id=chg-1") || !strings.Contains(out, "tenant=team-a") {
		t.Fatalf("log line missing change id or tenant: %s", out)
	}
	buf.Reset()
	logger.InfoContext(context.Background(), "hello")
	if out := buf.String(); strings.Contains(out, "change_id") || strings.Contains(out, "tenant") {
		t.Fatalf("log line outside any change has change keys: %s", out)
	}
}
