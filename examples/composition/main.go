// Composition: concurrent change composition (DESIGN.md §16). Two teams
// edit the same SDWAN fleet at the same time; instead of serializing
// them or letting them trample each other, the composer merges
// scope-independent changes into ONE composed schedule solved as a
// single plan, and refuses conflicting ones with a machine-readable
// diagnosis.
//
// Four phases:
//  1. two tenants upgrade disjoint markets concurrently — their deltas
//     merge under the subtree strategy and one plan schedules the union;
//  2. a third change collides on a shared element and is rejected with
//     the diagnosis naming the colliding node and the refusing strategy;
//  3. the same change resubmitted with queue disposition parks behind
//     the open generation and lands cleanly in the next one;
//  4. the attribute strategy lets two changes share a node when they
//     write different attributes — finer granularity buys merge
//     opportunity at the price of serialized execution.
//
// Everything between a scoped submission and its share of the composed run
// — scope -> delta, the union solve, one dispatch per distinct payload — is
// internal/compose/serve, the same Service cornetd maps onto HTTP.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"sync"
	"time"

	"cornet/internal/catalog"
	"cornet/internal/compose"
	composeserve "cornet/internal/compose/serve"
	"cornet/internal/core"
	"cornet/internal/inventory"
	planserve "cornet/internal/plan/serve"
	"cornet/internal/testbed"
	"cornet/internal/workflow"
)

// printRun shows one generation's shared result: the single union plan and
// every dispatch with the member change that owned it.
func printRun(m *composeserve.Member) {
	res := m.Run.Plan.Result
	fmt.Printf("  solved once: %d elements, makespan %d window(s), method %s\n",
		len(m.Run.Owners), res.Makespan, res.Method)
	for _, r := range m.Run.Results {
		status := "ok"
		if r.Err != nil {
			status = r.Err.Error()
		}
		fmt.Printf("    window %d  %-8s owner %-12s %s\n",
			r.Timeslot, r.Instance, r.ChangeID, status)
	}
}

func main() {
	// An SDWAN edge fleet: vCEs split across two markets, mirrored into
	// the inventory scopes are resolved against.
	tb := testbed.New(23)
	testbed.PopulateVNFs(tb, 6)
	markets := []string{"east", "west"}
	i := -1
	inv := testbed.MirrorInventory(tb, func(*testbed.NF) map[string]string {
		i++
		return map[string]string{inventory.AttrMarket: markets[i%2]}
	})
	f := core.New(map[string]catalog.ImplKind{"vCE": catalog.ImplScript},
		core.WithInvoker(tb))
	dep, err := f.DeployWorkflow(workflow.SoftwareUpgrade(), "vCE")
	if err != nil {
		log.Fatal(err)
	}
	east := []string{"vce-000", "vce-002", "vce-004"}
	west := []string{"vce-001", "vce-003", "vce-005"}

	// One composition service per strategy: four hourly maintenance windows,
	// two concurrent upgrades per NF type per window, union scopes planned
	// through the plan-serving layer and dispatched on the framework's engine.
	plans := planserve.New(f, planserve.Config{})
	defer plans.Stop()
	newService := func(strategy string) *composeserve.Service {
		svc, err := composeserve.New(composeserve.Config{
			Settings:  composeserve.Settings{Strategy: strategy},
			Inventory: inv, Plan: plans.Plan, Engine: f.Engine,
		})
		if err != nil {
			log.Fatal(err)
		}
		return svc
	}
	c := newService("subtree")
	defer c.Stop()

	change := func(id, tenant, version, prior string, scope composeserve.Scope) composeserve.Change {
		return composeserve.Change{ID: id, Tenant: tenant, Deployment: dep, Scope: scope,
			Inputs: map[string]string{"sw_version": version, "prior_version": prior}}
	}

	// pair submits two changes into one window and returns both answers.
	pair := func(svc *composeserve.Service, first, second composeserve.Change, secondMode compose.ConflictMode) (a, b *composeserve.Member, errB error) {
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			var err error
			if a, err = svc.Submit(context.Background(), first, compose.Reject); err != nil {
				log.Fatal(err)
			}
		}()
		time.Sleep(30 * time.Millisecond) // land inside one window
		go func() {
			defer wg.Done()
			b, errB = svc.Submit(context.Background(), second, secondMode)
		}()
		wg.Wait()
		return a, b, errB
	}

	// --- Phase 1: disjoint markets merge into one schedule ------------
	fmt.Println("--- phase 1: two tenants, disjoint markets, one composed schedule ---")
	teamA := change("chg-east", "team-a", "v7", "v1", composeserve.Scope{Scope: east})
	teamB := change("chg-west", "team-b", "v8", "v1", composeserve.Scope{Scope: west})
	a, _, err := pair(c, teamA, teamB, compose.Reject)
	if err != nil {
		log.Fatal(err)
	}
	printRun(a)
	fmt.Printf("  both submissions received composed change %s (members %v, strategy %s, parallelism %s)\n\n",
		a.Outcome.ComposedID, a.Outcome.Members, a.Outcome.Strategy, a.Outcome.Parallelism)

	// --- Phase 2: a colliding change is rejected with a diagnosis -----
	fmt.Println("--- phase 2: conflicting scope, rejected with a diagnosis ---")
	late := change("chg-late", "team-c", "v9", "v7", composeserve.Scope{Scope: []string{"vce-000", "vce-002"}})
	a, _, rejected := pair(c, teamA, late, compose.Reject)
	printRun(a)
	var cerr *compose.ConflictError
	if !errors.As(rejected, &cerr) {
		log.Fatalf("expected a conflict, got %v", rejected)
	}
	diag, _ := json.MarshalIndent(cerr.Diagnosis, "  ", "  ")
	fmt.Printf("  %v\n  diagnosis: %s\n\n", cerr, diag)

	// --- Phase 3: queue disposition parks and retries -----------------
	fmt.Println("--- phase 3: same change with on_conflict=queue lands in the next generation ---")
	a, queued, err := pair(c, teamA, late, compose.Queue)
	if err != nil {
		log.Fatal(err)
	}
	printRun(a)
	printRun(queued)
	fmt.Printf("  queued change completed as %s (members %v)\n\n", queued.Outcome.ComposedID, queued.Outcome.Members)

	// --- Phase 4: attribute granularity shares a node -----------------
	fmt.Println("--- phase 4: attribute strategy merges different attributes of one node ---")
	ca := newService("attribute")
	defer ca.Stop()
	node := []string{"vce-000"}
	dns := change("chg-dns", "team-a", "v7", "v1", composeserve.Scope{Scope: node,
		Attrs: map[string]map[string]string{"vce-000": {"cfg_dns": "10.0.0.1"}}})
	mtu := change("chg-mtu", "team-b", "v7", "v1", composeserve.Scope{Scope: node,
		Attrs: map[string]map[string]string{"vce-000": {"cfg_mtu": "1400"}}})
	a, _, err = pair(ca, dns, mtu, compose.Reject)
	if err != nil {
		log.Fatal(err)
	}
	printRun(a)
	fmt.Printf("  merged as %s (members %v, parallelism %s: shared-node changes execute serially)\n",
		a.Outcome.ComposedID, a.Outcome.Members, a.Outcome.Parallelism)
}
