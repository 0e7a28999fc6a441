package reconcile

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"cornet/internal/catalog"
	"cornet/internal/changelog"
	"cornet/internal/core"
	"cornet/internal/inventory"
	"cornet/internal/orchestrator"
	"cornet/internal/testbed"
)

// newTestRig builds a testbed fleet of vGW NFs (half in market dfw, half
// in nyc), its inventory mirror, and a reconcile manager.
func newTestRig(t *testing.T, count int) (*testbed.Testbed, *inventory.Inventory, *Manager) {
	t.Helper()
	return newTestRigInvoking(t, count, func(tb *testbed.Testbed) orchestrator.Invoker { return tb })
}

// newTestRigInvoking is newTestRig with the building-block calls routed
// through the invoker wrap returns, so a test can act on the first of them.
func newTestRigInvoking(t *testing.T, count int, wrap func(*testbed.Testbed) orchestrator.Invoker) (*testbed.Testbed, *inventory.Inventory, *Manager) {
	t.Helper()
	tb := testbed.New(7)
	testbed.PopulateVNFs(tb, count)
	i := 0
	inv := testbed.MirrorInventory(tb, func(*testbed.NF) map[string]string {
		i++
		if i%2 == 0 {
			return map[string]string{inventory.AttrMarket: "nyc"}
		}
		return map[string]string{inventory.AttrMarket: "dfw"}
	})
	f := core.New(map[string]catalog.ImplKind{
		"vGW": catalog.ImplVendorCLI, "vCE": catalog.ImplVendorCLI,
	}, core.WithInvoker(wrap(tb)))
	m, err := New(Config{
		Framework: f, Inventory: inv,
		MaxParallel: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tb, inv, m
}

// waitStatus polls a fleet's status until cond passes or the deadline hits.
func waitStatus(t *testing.T, s *Store, name string, cond func(Fleet) bool) Fleet {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	var last Fleet
	for time.Now().Before(deadline) {
		if f, ok := s.Get(name); ok {
			last = f
			if cond(f) {
				return f
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("fleet %s never reached condition; last status %+v", name, last.Status)
	return last
}

// TestReconcileConvergesDeclaredVersion is the declarative happy path: a
// declared version bump is diffed, planned, executed through the
// resilience layer, applied to the testbed and inventory, journaled, and
// reflected in status conditions and observed generation.
func TestReconcileConvergesDeclaredVersion(t *testing.T) {
	tb, inv, m := newTestRig(t, 4)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m.Start(ctx)
	defer m.Stop()

	fleet, err := m.Store().Apply(Spec{Name: "vgw-dfw", NFType: "vGW", Market: "dfw", SWVersion: "v2"})
	if err != nil {
		t.Fatal(err)
	}
	got := waitStatus(t, m.Store(), "vgw-dfw", func(f Fleet) bool {
		return ConditionIs(f.Status.Conditions, ConditionSynced, ConditionTrue)
	})
	if got.Status.ObservedGeneration != fleet.Generation {
		t.Fatalf("observed generation %d, want %d", got.Status.ObservedGeneration, fleet.Generation)
	}
	if !ConditionIs(got.Status.Conditions, ConditionReady, ConditionTrue) {
		t.Fatalf("Ready condition not true: %+v", got.Status.Conditions)
	}
	if got.Status.Applied == 0 || got.Status.Failed != 0 {
		t.Fatalf("applied=%d failed=%d, want >0/0", got.Status.Applied, got.Status.Failed)
	}
	// The live NFs and the inventory mirror both converged — dfw only.
	var dfw, nyc int
	for _, nf := range tb.All() {
		if nf.Type != "vGW" {
			continue
		}
		e, _ := inv.Get(nf.ID)
		market, _ := e.Attr(inventory.AttrMarket)
		sw, _ := e.Attr(inventory.AttrSWVersion)
		switch market {
		case "dfw":
			dfw++
			if nf.ActiveVersion() != "v2" || sw != "v2" {
				t.Fatalf("%s: testbed=%s inventory=%s, want v2", nf.ID, nf.ActiveVersion(), sw)
			}
		case "nyc":
			nyc++
			if nf.ActiveVersion() != "v1" || sw != "v1" {
				t.Fatalf("%s outside the fleet was changed to %s/%s", nf.ID, nf.ActiveVersion(), sw)
			}
		}
	}
	if dfw == 0 || nyc == 0 {
		t.Fatalf("market split dfw=%d nyc=%d, want both populated", dfw, nyc)
	}
	// Every applied change has an audit revision at the right generation.
	revs := m.Journal().ByFleet("vgw-dfw")
	if len(revs) != dfw {
		t.Fatalf("journal has %d revisions, want %d", len(revs), dfw)
	}
	for _, r := range revs {
		if r.Outcome != OutcomeApplied || r.Generation != fleet.Generation ||
			r.Type != changelog.SoftwareUpgrade || r.To != "v2" {
			t.Fatalf("revision %+v", r)
		}
	}
}

// TestReconcileRetriesThroughFault is the acceptance-criteria e2e: with a
// testbed fault making every call fail, the reconcile pass fails, the
// fleet reports Synced=False with backoff requeues, and — once the fault
// clears — the loop's backoff retry converges the fleet without
// any operator action.
func TestReconcileRetriesThroughFault(t *testing.T) {
	tb, inv, m := newTestRig(t, 2)
	if err := tb.SetFault(testbed.FaultTargetAll, testbed.FaultSpec{ErrorRate: 1}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m.Start(ctx)
	defer m.Stop()

	if _, err := m.Store().Apply(Spec{Name: "vgw-all", NFType: "vGW", SWVersion: "v2"}); err != nil {
		t.Fatal(err)
	}
	// Phase 1: the fault defeats every change; the pass fails and requeues.
	failedOnce := waitStatus(t, m.Store(), "vgw-all", func(f Fleet) bool {
		c, ok := GetCondition(f.Status.Conditions, ConditionSynced)
		return ok && c.Status == ConditionFalse && c.Reason == "ExecutionFailed" &&
			f.Status.Failed > 0
	})
	if failedOnce.Status.Applied != 0 {
		t.Fatalf("changes applied through a total fault: %+v", failedOnce.Status)
	}
	if !ConditionIs(failedOnce.Status.Conditions, ConditionReady, ConditionTrue) {
		t.Fatal("Ready should stay true through execution failures")
	}
	var sawFailedRev bool
	for _, r := range m.Journal().ByFleet("vgw-all") {
		if r.Outcome == OutcomeFailed && r.Detail != "" {
			sawFailedRev = true
		}
	}
	if !sawFailedRev {
		t.Fatal("no failed revision journaled under fault")
	}

	// Phase 2: clear the fault; the backoff requeue converges on its own.
	tb.ClearFaults()
	waitStatus(t, m.Store(), "vgw-all", func(f Fleet) bool {
		return ConditionIs(f.Status.Conditions, ConditionSynced, ConditionTrue) &&
			f.Status.Drift == 0
	})
	for _, nf := range tb.All() {
		if nf.Type == "vGW" && nf.ActiveVersion() != "v2" {
			t.Fatalf("%s never converged: %s", nf.ID, nf.ActiveVersion())
		}
	}
	e, _ := inv.Get("vgw-000")
	if sw, _ := e.Attr(inventory.AttrSWVersion); sw != "v2" {
		t.Fatalf("inventory mirror stale at %s", sw)
	}
	// Convergence forgets the backoff history.
	if n := m.Requeues("vgw-all"); n != 0 {
		t.Fatalf("requeue count %d after convergence, want 0", n)
	}
}

// TestReconcileConfigDriftAndDeletion covers the config-change path and
// fleet deletion: declared config lands on the NFs and the mirror, and a
// deleted fleet stops reconciling.
func TestReconcileConfigDriftAndDeletion(t *testing.T) {
	tb, inv, m := newTestRig(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m.Start(ctx)
	defer m.Stop()

	if _, err := m.Store().Apply(Spec{Name: "vgw-cfg", NFType: "vGW",
		Config: map[string]string{"mtu": "9000"}}); err != nil {
		t.Fatal(err)
	}
	waitStatus(t, m.Store(), "vgw-cfg", func(f Fleet) bool {
		return ConditionIs(f.Status.Conditions, ConditionSynced, ConditionTrue)
	})
	for _, nf := range tb.All() {
		if nf.Type != "vGW" {
			continue
		}
		if nf.Config("mtu") != "9000" {
			t.Fatalf("%s config mtu = %q", nf.ID, nf.Config("mtu"))
		}
		e, _ := inv.Get(nf.ID)
		if v, _ := e.Attr("cfg_mtu"); v != "9000" {
			t.Fatalf("%s mirror cfg_mtu = %q", nf.ID, v)
		}
	}
	if !m.Store().Delete("vgw-cfg") {
		t.Fatal("Delete = false")
	}
	if _, ok := m.Store().Get("vgw-cfg"); ok {
		t.Fatal("fleet survived deletion")
	}
}

// TestReconcileUnknownMarketSurfacesReadyFalse pins the selector-error
// path: a fleet over a market that does not exist reports Ready=False
// rather than a vacuous in-sync status.
func TestReconcileUnknownMarketSurfacesReadyFalse(t *testing.T) {
	_, _, m := newTestRig(t, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m.Start(ctx)
	defer m.Stop()

	if _, err := m.Store().Apply(Spec{Name: "ghost", NFType: "vGW", Market: "atlantis", SWVersion: "v2"}); err != nil {
		t.Fatal(err)
	}
	got := waitStatus(t, m.Store(), "ghost", func(f Fleet) bool {
		c, ok := GetCondition(f.Status.Conditions, ConditionReady)
		return ok && c.Status == ConditionFalse && c.Reason == "SelectorError"
	})
	if got.Status.ObservedGeneration != got.Generation {
		t.Fatalf("selector errors must still observe the generation: %+v", got.Status)
	}
}

// TestReconcileAccountsForHaltedConfigChanges cancels a config-drift pass
// during its first slot: the changes of the slot the dispatcher never
// reached come back without an execution record, and each must still be
// counted failed and journaled with the halt as its detail.
func TestReconcileAccountsForHaltedConfigChanges(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, _, m := newTestRigInvoking(t, 4, func(tb *testbed.Testbed) orchestrator.Invoker {
		return orchestrator.InvokerFunc(func(ctx context.Context, api string, args map[string]string) (map[string]string, error) {
			cancel() // slot 0 is running: no later slot is dispatched
			return tb.Invoke(ctx, api, args)
		})
	})
	// Four vGWs at MaxParallel 2: two slots of two config changes.
	if _, err := m.Store().Apply(Spec{Name: "vgw-cfg", NFType: "vGW",
		Config: map[string]string{"mtu": "9000"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Reconcile(ctx, "vgw-cfg"); err == nil {
		t.Fatal("a halted pass reported success")
	}
	fleet, _ := m.Store().Get("vgw-cfg")
	if got := fleet.Status.Applied + fleet.Status.Failed; got != 4 {
		t.Fatalf("applied=%d failed=%d, want all 4 planned changes accounted for",
			fleet.Status.Applied, fleet.Status.Failed)
	}
	revs := m.Journal().ByFleet("vgw-cfg")
	if len(revs) != 4 {
		t.Fatalf("journal has %d revisions, want one per planned change", len(revs))
	}
	halted := 0
	for _, r := range revs {
		if strings.Contains(r.Detail, "not dispatched") {
			halted++
			if r.Outcome != OutcomeFailed || !strings.Contains(r.Detail, orchestrator.ErrHalted.Error()) {
				t.Fatalf("unreached change journaled as %+v", r)
			}
		}
	}
	if halted != 2 {
		t.Fatalf("%d revisions carry the halt, want the 2 of the unreached slot: %+v", halted, revs)
	}
}

// TestManagerLeavesNoGoroutines converges one fleet — which leaves a resync
// timer pending — and stops: the loop's goroutine must exit and the timer
// must not fire a pass.
func TestManagerLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	_, _, m := newTestRig(t, 2)
	m.Start(context.Background())
	if _, err := m.Store().Apply(Spec{Name: "vgw-all", NFType: "vGW", SWVersion: "v2"}); err != nil {
		t.Fatal(err)
	}
	waitStatus(t, m.Store(), "vgw-all", func(f Fleet) bool {
		return ConditionIs(f.Status.Conditions, ConditionSynced, ConditionTrue)
	})
	m.Stop()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Stop, %d before the manager existed", runtime.NumGoroutine(), before)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
