package tenants

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestRecordAndSnapshot(t *testing.T) {
	a := NewAccountant()
	a.RecordPlan("alpha", false, true, 5*time.Millisecond, 40*time.Millisecond, 120)
	a.RecordPlan("alpha", true, false, 0, 0, 0)
	a.RecordShed("beta")
	a.RecordBlocks("alpha", 3)
	a.RecordPlan("", false, false, 0, 0, 0) // dropped
	a.RecordBlocks("beta", 0)               // dropped

	snap := a.Snapshot()
	if len(snap) != 2 || snap[0].Tenant != "alpha" || snap[1].Tenant != "beta" {
		t.Fatalf("snapshot = %+v", snap)
	}
	alpha := snap[0]
	if alpha.PlanRequests != 2 || alpha.CacheHits != 1 || alpha.CacheMisses != 1 ||
		alpha.WarmStarts != 1 || alpha.BlocksExecuted != 3 {
		t.Fatalf("alpha = %+v", alpha)
	}
	if alpha.SolveWallNS != int64(40*time.Millisecond) || alpha.NodesExplored != 120 ||
		alpha.AdmissionWaitNS != int64(5*time.Millisecond) {
		t.Fatalf("alpha cost = %+v", alpha)
	}
	if beta := snap[1]; beta.Sheds != 1 || beta.PlanRequests != 0 {
		t.Fatalf("beta = %+v", beta)
	}
}

// TestConcurrentRecording attributes work from many goroutines; run with
// -race via the Makefile race target.
func TestConcurrentRecording(t *testing.T) {
	a := NewAccountant()
	const workers, per = 8, 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tenant := fmt.Sprintf("t%d", w%2)
			for i := 0; i < per; i++ {
				a.RecordPlan(tenant, i%2 == 0, false, time.Microsecond, time.Microsecond, 1)
				a.RecordShed(tenant)
				a.RecordBlocks(tenant, 2)
			}
		}(w)
	}
	wg.Wait()
	snap := a.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("tenants = %d", len(snap))
	}
	for _, u := range snap {
		if u.PlanRequests != workers/2*per || u.Sheds != workers/2*per ||
			u.BlocksExecuted != int64(workers/2*per*2) || u.NodesExplored != workers/2*per {
			t.Fatalf("usage = %+v", u)
		}
	}
}
