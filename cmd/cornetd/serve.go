package main

import (
	"context"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"cornet/internal/obs"
	"cornet/internal/obs/events"
)

// newMux assembles the full routing table: every API route goes through the
// observability middleware (request ID, access log, in-flight gauge,
// per-route latency histogram); /metrics and /debug/pprof are served raw.
func newMux(s *server) *http.ServeMux {
	mux := http.NewServeMux()
	wrap := func(route string, h http.Handler) {
		mux.Handle(route, s.httpm.Middleware(route, s.log, h))
	}
	// Building blocks execute directly against the testbed; the fault
	// endpoint configures per-NF injected misbehaviour at run time.
	wrap("/api/bb/", s.tb.Handler())
	wrap("/api/testbed/faults", s.tb.Handler())
	wrap("/healthz", http.HandlerFunc(s.handleHealthz))
	wrap("/api/catalog", http.HandlerFunc(s.handleCatalog))
	wrap("/api/wf/deploy", http.HandlerFunc(s.handleDeploy))
	wrap("/api/wf/execute", http.HandlerFunc(s.handleExecute))
	wrap("/api/plan", http.HandlerFunc(s.handlePlan))
	wrap("/api/desired", http.HandlerFunc(s.handleDesired))
	wrap("/api/revisions", http.HandlerFunc(s.handleRevisions))
	wrap("/api/changes/", http.HandlerFunc(s.handleTimeline))
	wrap("/api/slo", http.HandlerFunc(s.handleSLO))
	wrap("/api/tenants", http.HandlerFunc(s.handleTenants))
	wrap("/version", http.HandlerFunc(s.handleVersion))
	// The event feed is served raw: its SSE mode needs the naked
	// http.Flusher the middleware's recording writer would hide.
	mux.Handle("/api/events", events.Default.Handler())
	// SLO gauges are evaluated lazily: refresh them on every scrape.
	mux.Handle("/metrics", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.slo.SyncMetrics()
		obs.Default.Handler().ServeHTTP(w, r)
	}))
	// pprof registers on the default mux only; expose it here explicitly.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// handleHealthz reports liveness plus enough build and load context to make
// the endpoint useful to an operator's first curl.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	deployments := len(s.deployments)
	s.mu.RUnlock()
	resp := struct {
		Status        string  `json:"status"`
		UptimeSeconds float64 `json:"uptime_seconds"`
		GoVersion     string  `json:"go_version"`
		Revision      string  `json:"revision,omitempty"`
		TestbedVNFs   int     `json:"testbed_vnfs"`
		Deployments   int     `json:"deployments"`
		Fleets        int     `json:"fleets"`
		InFlight      int     `json:"in_flight_requests"`
	}{
		Status:        "ok",
		UptimeSeconds: time.Since(s.started).Seconds(),
		GoVersion:     runtime.Version(),
		Revision:      buildRevision(),
		TestbedVNFs:   s.tb.Len(),
		Deployments:   deployments,
		Fleets:        len(s.rec.Store().List()),
		InFlight:      int(s.httpm.InFlight.Value()),
	}
	writeJSON(w, http.StatusOK, resp)
}

func buildRevision() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	for _, kv := range bi.Settings {
		if kv.Key == "vcs.revision" {
			return kv.Value
		}
	}
	return ""
}

// serve runs the HTTP server until SIGINT/SIGTERM, then drains in-flight
// requests for at most drain before forcing the listener closed.
func serve(s *server, addr string, drain time.Duration) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The reconcile controller lives for the server's lifetime: the signal
	// context shuts its queue down, Stop waits out in-flight passes.
	s.rec.Start(ctx)
	defer s.rec.Stop()
	// The plan admission workers drain after the listener: queued plan
	// requests either finish or fail fast with 503s.
	defer s.planSrv.Stop()
	// Seal and drain any open composition generation; its members get
	// their outcome before the listener finishes draining.
	defer s.comp.Stop()
	// Detach the SLO tracker's event-journal feed.
	defer s.sloStop()

	srv := &http.Server{Addr: addr, Handler: newMux(s)}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately instead of waiting the drain
	s.log.LogAttrs(context.Background(), slog.LevelInfo, "shutdown signal; draining",
		slog.Int("in_flight", int(s.httpm.InFlight.Value())),
		slog.Duration("drain_timeout", drain))
	sctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		s.log.LogAttrs(context.Background(), slog.LevelWarn, "drain timeout exceeded; closing",
			slog.Int("in_flight", int(s.httpm.InFlight.Value())))
		return srv.Close()
	}
	s.log.LogAttrs(context.Background(), slog.LevelInfo, "cornetd stopped",
		slog.Int("in_flight", int(s.httpm.InFlight.Value())))
	return nil
}
