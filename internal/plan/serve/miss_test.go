package serve

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"cornet/internal/catalog"
	"cornet/internal/core"
	"cornet/internal/inventory"
	"cornet/internal/netgen"
	"cornet/internal/plan/intent"
)

// missItems is the edge-layer fleet of cornetd's default network.
const missItems = 201

// missProbe is the end-to-end benchmark's plan_miss workload without the
// HTTP: cornetd's network, edge subset, framework and plan options, and a
// stream of benchDoc with a never-repeated slack per-EMS capacity, so
// every request is a new fingerprint of one search problem.
type missProbe struct {
	tb  testing.TB
	srv *Server
	inv *inventory.Inventory
	opt core.PlanOptions
	i   int
}

func newMissProbe(tb testing.TB) *missProbe {
	tb.Helper()
	net, err := netgen.Cellular(netgen.DefaultCellular(200, 1))
	if err != nil {
		tb.Fatal(err)
	}
	inv := net.Inv.Subset(net.Inv.Filter(func(e *inventory.Element) bool {
		layer, _ := e.Attr(inventory.AttrLayer)
		return layer == "edge"
	}))
	srv := New(core.New(map[string]catalog.ImplKind{"vCE": catalog.ImplScript}), Config{})
	tb.Cleanup(srv.Stop)
	p := &missProbe{tb: tb, srv: srv, inv: inv, opt: core.PlanOptions{Topology: net.Topo}}
	// The first miss is cold; by the 40th the warm scan reads a full window
	// of WarmScan candidates, as it does for the life of a serving daemon.
	for k := 0; k < 40; k++ {
		p.miss(k > 0)
	}
	return p
}

// miss plans the next never-repeated document, parse included, and checks
// the answer is a full schedule that was solved, and seeded when wantWarm.
func (p *missProbe) miss(wantWarm bool) {
	p.i++
	doc := strings.Replace(benchDoc, `"default_capacity": 1000`, fmt.Sprintf(`"default_capacity": %d`, 10000+p.i), 1)
	req, err := intent.Parse([]byte(doc))
	if err != nil {
		p.tb.Fatal(err)
	}
	resp, err := p.srv.Plan(context.Background(), "t", req, p.inv, p.opt)
	if err != nil {
		p.tb.Fatal(err)
	}
	if resp.CacheHit || resp.Warm != wantWarm || len(resp.Result.Assignment) != missItems {
		p.tb.Fatalf("miss %d: hit=%t warm=%t (want %t), %d assignments (want %d)",
			p.i, resp.CacheHit, resp.Warm, wantWarm, len(resp.Result.Assignment), missItems)
	}
}

// BenchmarkMiss times one warm-seeded plan miss in process: parse,
// translate, fingerprint, warm-seed scan, admission, a one-node solve and
// the cache put. `make bench-miss` runs it.
func BenchmarkMiss(b *testing.B) {
	p := newMissProbe(b)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		p.miss(true)
	}
}

// TestWarmMissAllocBudget pins what a warm miss allocates. Before the miss
// path went on a diet it was 6,928 allocations and 666 KB.
func TestWarmMissAllocBudget(t *testing.T) {
	p := newMissProbe(t)
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, func() { p.miss(true) })
	runtime.ReadMemStats(&after)
	// AllocsPerRun makes one warm-up call besides the measured ones.
	bytes := (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
	t.Logf("warm miss: %.0f allocs, %d KB", allocs, bytes>>10)
	if allocs > 4000 {
		t.Errorf("warm miss: %.0f allocs, budget 4000", allocs)
	}
	if bytes > 450<<10 {
		t.Errorf("warm miss: %d bytes, budget %d", bytes, 450<<10)
	}
}
