package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"

	"cornet/internal/inventory"
	"cornet/internal/obs"
	"cornet/internal/obs/events"
	"cornet/internal/obs/tenants"
)

// planReply is the whole /api/plan answer, as a client sees it.
type planReply struct {
	Method    string `json:"method"`
	Makespan  int    `json:"makespan"`
	Conflicts int    `json:"conflicts"`
	Tenant    string `json:"tenant"`
	ChangeID  string `json:"change_id"`
	Cache     struct {
		Hit bool   `json:"hit"`
		Key string `json:"key"`
	} `json:"cache"`
	WaitNS     int64            `json:"admission_wait_ns"`
	Stats      []map[string]any `json:"stats"`
	Assignment map[string]int   `json:"assignment"`
	Trace      *obs.SpanExport  `json:"trace"`
}

// tryPlan posts planDoc traced and decodes the answer.
func tryPlan(url, tenant, changeID string) (out planReply, err error) {
	req, err := http.NewRequest(http.MethodPost, url+"/api/plan?trace=1", strings.NewReader(planDoc))
	if err != nil {
		return out, err
	}
	req.Header.Set("X-Tenant", tenant)
	req.Header.Set("X-Change-ID", changeID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("plan status = %s", resp.Status)
	}
	return out, json.NewDecoder(resp.Body).Decode(&out)
}

func postPlan(t *testing.T, url, tenant, changeID string) planReply {
	t.Helper()
	out, err := tryPlan(url, tenant, changeID)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// l1Answered reads the plan.lookup span of a traced answer.
func l1Answered(t *testing.T, r planReply) (l1Hit, translated bool) {
	t.Helper()
	lookup := r.Trace.Find("plan.lookup")
	if lookup == nil {
		t.Fatalf("no plan.lookup span in the trace of %s", r.ChangeID)
	}
	l1Hit, _ = lookup.Attrs["l1_hit"].(bool)
	return l1Hit, r.Trace.Find("plan.translate") != nil
}

// A hit answered through the L1 is, to everyone watching, the hit it was
// before: the same response fields, two journal events, one tenant-account
// update — only the trace says the request was not translated.
func TestPlanHitThroughTheL1(t *testing.T) {
	s, srv := testServer(t)
	cold := postPlan(t, srv.URL, "l1-cold", "chg-l1-cold")
	if l1Hit, translated := l1Answered(t, cold); cold.Cache.Hit || l1Hit || !translated {
		t.Fatalf("cold: hit=%t l1=%t translated=%t", cold.Cache.Hit, l1Hit, translated)
	}
	subset := s.planTargets()

	hot := postPlan(t, srv.URL, "l1-hot", "chg-l1-hot")
	if l1Hit, translated := l1Answered(t, hot); !hot.Cache.Hit || !l1Hit || translated {
		t.Fatalf("hot: hit=%t l1=%t translated=%t", hot.Cache.Hit, l1Hit, translated)
	}
	if hot.Tenant != "l1-hot" || hot.ChangeID != "chg-l1-hot" || hot.Cache.Key != cold.Cache.Key || hot.WaitNS != 0 {
		t.Fatalf("hot answer = tenant %q change %q key %q wait %d", hot.Tenant, hot.ChangeID, hot.Cache.Key, hot.WaitNS)
	}
	if hot.Method != cold.Method || hot.Makespan != cold.Makespan || hot.Conflicts != cold.Conflicts ||
		!reflect.DeepEqual(hot.Stats, cold.Stats) || !reflect.DeepEqual(hot.Assignment, cold.Assignment) ||
		len(hot.Assignment) != subset.Len() {
		t.Fatal("the hit does not carry the cached plan")
	}
	if s.planTargets() != subset {
		t.Fatal("the edge subset was rebuilt although the inventory did not change")
	}

	var types []events.Type
	for _, e := range events.Default.Query(events.Filter{ChangeID: "chg-l1-hot"}) {
		types = append(types, e.Type)
		if e.Tenant != "l1-hot" {
			t.Errorf("%s event attributed to %q", e.Type, e.Tenant)
		}
	}
	if want := []events.Type{events.TypeCacheHit, events.TypePlanServed}; !reflect.DeepEqual(types, want) {
		t.Fatalf("journal events of the hit = %v, want %v", types, want)
	}
	var u tenants.Usage
	for _, acct := range tenants.Default.Snapshot() {
		if acct.Tenant == "l1-hot" {
			u = acct
		}
	}
	if u.PlanRequests != 1 || u.CacheHits != 1 || u.CacheMisses != 0 || u.SolveWallNS != 0 {
		t.Fatalf("hit tenant account = %+v", u)
	}
}

// The memoised edge subset follows the server's inventory: a write moves
// it (and so the request key), a write that changes nothing does not.
func TestPlanSubsetFollowsTheInventory(t *testing.T) {
	s, srv := testServer(t)
	postPlan(t, srv.URL, "l1-inv", "chg-l1-inv-0")
	subset := s.planTargets()
	id := subset.IDs()[0]
	e, _ := s.net.Inv.Get(id)
	vendor, _ := e.Attr(inventory.AttrVendor)

	if err := s.net.Inv.SetAttr(id, inventory.AttrVendor, vendor); err != nil {
		t.Fatal(err)
	}
	if s.planTargets() != subset {
		t.Fatal("a SetAttr that changed nothing rebuilt the edge subset")
	}
	if err := s.net.Inv.SetAttr(id, inventory.AttrVendor, "someone-else"); err != nil {
		t.Fatal(err)
	}
	// The request sees the new inventory: it is translated again, and —
	// the intent does not read the vendor — lands on the cached plan.
	after := postPlan(t, srv.URL, "l1-inv", "chg-l1-inv-1")
	if l1Hit, translated := l1Answered(t, after); l1Hit || !translated || !after.Cache.Hit {
		t.Fatalf("after SetAttr: l1=%t translated=%t hit=%t", l1Hit, translated, after.Cache.Hit)
	}
	moved := s.planTargets()
	if moved == subset {
		t.Fatal("the edge subset outlived an inventory write")
	}
	if got, _ := moved.Get(id); got == nil || got.Attributes[inventory.AttrVendor] != "someone-else" {
		t.Fatalf("rebuilt subset holds %+v", got)
	}
	again := postPlan(t, srv.URL, "l1-inv", "chg-l1-inv-2")
	if l1Hit, translated := l1Answered(t, again); !l1Hit || translated || !again.Cache.Hit {
		t.Fatalf("settled: l1=%t translated=%t hit=%t", l1Hit, translated, again.Cache.Hit)
	}
}

// Plan requests share the memoised subset while a writer keeps moving the
// inventory under them (run under -race by make race).
func TestPlanConcurrentWithInventoryWrites(t *testing.T) {
	s, srv := testServer(t)
	id := s.planTargets().IDs()[0]
	stop := make(chan struct{})
	var writer, clients sync.WaitGroup
	writes := 0
	writer.Add(1)
	go func() {
		defer writer.Done()
		for ; ; writes++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.net.Inv.SetAttr(id, inventory.AttrVendor, fmt.Sprint("v", writes)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for c := 0; c < 4; c++ {
		clients.Add(1)
		go func() {
			defer clients.Done()
			for i := 0; i < 25; i++ {
				r, err := tryPlan(srv.URL, "l1-race", fmt.Sprintf("chg-l1-race-%d-%d", c, i))
				if err != nil || len(r.Assignment) == 0 {
					t.Errorf("client %d request %d: err=%v, %d assigned", c, i, err, len(r.Assignment))
					return
				}
			}
		}()
	}
	clients.Wait()
	close(stop)
	writer.Wait()
	settled := s.planTargets()
	if got, _ := settled.Get(id); got.Attributes[inventory.AttrVendor] != fmt.Sprint("v", writes-1) {
		t.Fatalf("settled subset holds vendor %q after %d writes", got.Attributes[inventory.AttrVendor], writes)
	}
	if again := s.planTargets(); again != settled {
		t.Fatal("the settled subset is rebuilt per call")
	}
}
