package obs

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestRegistryConcurrency hammers every instrument kind from many
// goroutines while a reader scrapes, so `go test -race ./internal/obs`
// covers the registry's synchronization (the CI race suite runs this).
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const iters = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				r.Counter("race_ops_total", "x").Inc()
				r.CounterVec("race_runs_total", "x", "worker").With(fmt.Sprint(w % 3)).Add(0.5)
				g := r.Gauge("race_gauge", "x")
				g.Inc()
				g.Dec()
				r.Histogram("race_latency_seconds", "x", nil).Observe(float64(i) / iters)
				if i%50 == 0 {
					var sb strings.Builder
					if err := r.WritePrometheus(&sb); err != nil {
						t.Error(err)
					}
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("race_ops_total", "x").Value(); got != workers*iters {
		t.Fatalf("race_ops_total = %v, want %d", got, workers*iters)
	}
	if got := r.Histogram("race_latency_seconds", "x", nil).Count(); got != workers*iters {
		t.Fatalf("histogram count = %v, want %d", got, workers*iters)
	}
}

// TestSpanTreeConcurrency exercises concurrent child creation, attribute
// writes, and export — parallel solver workers produce this shape.
func TestSpanTreeConcurrency(t *testing.T) {
	ctx, root := StartTrace(context.Background(), "race")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			cctx, sp := StartSpan(ctx, fmt.Sprintf("child-%d", i%2))
			sp.SetAttr("i", i)
			sp.Event("tick", "i", i)
			_, g := StartSpan(cctx, "grandchild")
			g.End()
			sp.End()
		}()
	}
	// Concurrent export while children are being added.
	for i := 0; i < 4; i++ {
		_ = root.Export()
	}
	wg.Wait()
	root.End()
	ex := root.Export()
	if len(ex.Children) != 8 {
		t.Fatalf("children = %d, want 8", len(ex.Children))
	}
	if len(ex.FindAll("grandchild")) != 8 {
		t.Fatalf("grandchildren = %d, want 8", len(ex.FindAll("grandchild")))
	}
}
