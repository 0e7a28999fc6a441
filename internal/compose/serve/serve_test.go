package serve

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"cornet/internal/catalog"
	"cornet/internal/compose"
	"cornet/internal/core"
	"cornet/internal/inventory"
	"cornet/internal/orchestrator"
	"cornet/internal/plan/intent"
	planserve "cornet/internal/plan/serve"
	"cornet/internal/plan/translate"
	"cornet/internal/workflow"
)

// fleet is six vCEs, even indexes in market east and odd ones in west, plus
// one element that carries no market.
func fleet(t *testing.T) *inventory.Inventory {
	t.Helper()
	inv := inventory.New()
	for i := 0; i < 6; i++ {
		inv.MustAdd(&inventory.Element{ID: fmt.Sprintf("vce-%03d", i), Attributes: map[string]string{
			inventory.AttrNFType: "vCE", inventory.AttrMarket: []string{"east", "west"}[i%2],
		}})
	}
	inv.MustAdd(&inventory.Element{ID: "lab-000", Attributes: map[string]string{inventory.AttrNFType: "vCE"}})
	return inv
}

// TestDeltaOrderIndependentAndSignedByTheUnionModel: a scope's delta does
// not depend on the order (or the form: ids or markets) it was written in,
// elements land at {market, id} or {id}, and every node op's signature is
// the payload signature XOR the element's item signature in the union scope
// translated directly — which is why composed members plan as their union.
func TestDeltaOrderIndependentAndSignedByTheUnionModel(t *testing.T) {
	inv, req := fleet(t), NewIntent(4, 2)
	pay := PayloadSig("software-upgrade", map[string]string{"sw_version": "v7", "prior_version": "v1"})
	if pay == PayloadSig("software-upgrade", map[string]string{"sw_version": "v8", "prior_version": "v1"}) {
		t.Fatal("payload signature ignores the inputs")
	}
	scopes := []Scope{
		{Scope: []string{"vce-000", "vce-002", "vce-004"}},
		{Scope: []string{"vce-004", "vce-000", "vce-002", "vce-000"}},
		{Markets: []string{"east"}},
		{Scope: []string{"vce-002"}, Markets: []string{"east"}},
	}
	east, err := Delta("chg-e", "team-e", req, inv, scopes[0], pay)
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range scopes[1:] {
		d, err := Delta("chg-e", "team-e", req, inv, sc, pay)
		if err != nil {
			t.Fatal(err)
		}
		if !d.Equal(east) {
			t.Errorf("scope %+v: delta %+v, want %+v", sc, d.Ops, east.Ops)
		}
	}
	rest, err := Delta("chg-r", "team-r", req, inv, Scope{Scope: []string{"lab-000"}, Markets: []string{"west"}}, pay)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := translate.Translate(req, inv, translate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := tr.Model.ItemSignatures()
	seen := 0
	for _, op := range append(append([]compose.Op(nil), east.Ops...), rest.Ops...) {
		id := op.Path[len(op.Path)-1]
		wantPath := id // lab-000 carries no market
		if e, _ := inv.Get(id); e.Attributes[inventory.AttrMarket] != "" {
			wantPath = e.Attributes[inventory.AttrMarket] + "/" + id
		}
		if op.Path.String() != wantPath {
			t.Errorf("element %s at %v, want %s", id, op.Path, wantPath)
		}
		if op.Attr != "" || op.Sig^pay != want[id] {
			t.Errorf("op %+v: sig^payload = %x, union model item signature %x", op, op.Sig^pay, want[id])
		}
		seen++
	}
	if seen != inv.Len() {
		t.Fatalf("the two scopes cover %d elements, fleet has %d", seen, inv.Len())
	}

	// Attribute-level ops replace the node claim and carry no payload.
	attrs := Scope{Scope: []string{"vce-000", "vce-002"},
		Attrs: map[string]map[string]string{"vce-000": {"cfg_mtu": "1400", "cfg_dns": "10.0.0.1"}}}
	d, err := Delta("chg-a", "team-a", req, inv, attrs, pay)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, op := range d.Ops {
		got = append(got, op.Path.String()+"#"+op.Attr)
		if op.Attr != "" && op.Sig != compose.Sig(op.Attr, attrs.Attrs["vce-000"][op.Attr]) {
			t.Errorf("attribute op %+v is not signed by its value alone", op)
		}
	}
	sort.Strings(got)
	if want := []string{"east/vce-000#cfg_dns", "east/vce-000#cfg_mtu", "east/vce-002#"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("ops = %v, want %v", got, want)
	}
}

func TestScopeErrors(t *testing.T) {
	inv, req := fleet(t), NewIntent(4, 2)
	for _, tc := range []struct {
		name  string
		scope Scope
		want  string
	}{
		{"unknown element", Scope{Scope: []string{"vce-000", "ghost-999"}}, `unknown element "ghost-999"`},
		{"empty market", Scope{Markets: []string{"mars"}}, `market "mars" matches no elements`},
		{"empty scope", Scope{}, "empty (set scope and/or markets)"},
		{"attrs outside scope", Scope{Scope: []string{"vce-000"},
			Attrs: map[string]map[string]string{"vce-001": {"cfg_mtu": "1"}}}, `element "vce-001" not in scope`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Delta("chg", "team", req, inv, tc.scope, 1); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one naming %q", err, tc.want)
			}
		})
	}
}

func TestConcurrencyFollowsParallelism(t *testing.T) {
	for p, want := range map[compose.Parallelism]int{compose.None: 1, compose.Partial: 3, compose.Full: 24} {
		if got := concurrency(p, 3, 24); got != want {
			t.Errorf("%s parallelism: dispatcher concurrency %d, want %d", p, got, want)
		}
	}
	for _, st := range compose.Strategies() {
		if got := concurrency(st.Parallelism(), 3, 24); got < 1 || got > 24 {
			t.Errorf("strategy %s: concurrency %d", st.Name(), got)
		}
	}
}

// harness is a Service over a fake planner (element i of the union scope in
// slot i, the elements in skip left out) and a fake invoker that records
// which instance ran with which software version.
type harness struct {
	*Service
	dep *workflow.Deployment

	mu    sync.Mutex
	ran   []string
	plans int
	skip  map[string]bool
	onRun func() // called, if set, on every invocation
}

func newHarness(t *testing.T, settings Settings) *harness {
	t.Helper()
	h := &harness{skip: map[string]bool{}}
	f := core.New(map[string]catalog.ImplKind{"vCE": catalog.ImplScript})
	dep, err := f.DeployWorkflow(workflow.SoftwareUpgrade(), "vCE")
	if err != nil {
		t.Fatal(err)
	}
	h.dep = dep
	// No outputs: the upgrade workflow's health decision reads "not
	// healthy" and ends, so one execution is exactly one invocation.
	invoke := orchestrator.InvokerFunc(func(_ context.Context, _ string, args map[string]string) (map[string]string, error) {
		h.mu.Lock()
		defer h.mu.Unlock()
		h.ran = append(h.ran, args["instance"]+"@"+args["sw_version"])
		if h.onRun != nil {
			h.onRun()
		}
		return nil, nil
	})
	plan := func(_ context.Context, _ string, _ *intent.Request, inv *inventory.Inventory, opt core.PlanOptions) (*planserve.Response, error) {
		h.mu.Lock()
		defer h.mu.Unlock()
		h.plans++
		if !opt.RequireAll {
			return nil, errors.New("union plan must require every element")
		}
		res := &core.PlanResult{Assignment: map[string]int{}}
		for i, id := range inv.IDs() {
			if !h.skip[id] {
				res.Assignment[id] = i
				res.Makespan = i + 1
			}
		}
		return &planserve.Response{Result: res}, nil
	}
	h.Service, err = New(Config{Settings: settings, Inventory: fleet(t), Plan: plan, Engine: orchestrator.NewEngine(invoke)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Stop)
	return h
}

func (h *harness) change(id, version string, sc Scope) Change {
	return Change{ID: id, Tenant: "team-" + id, Deployment: h.dep, Scope: sc,
		Inputs: map[string]string{"sw_version": version}}
}

// TestSolveAttribution drives the Solve callback on hand-picked members:
// identical payloads share one dispatch, a distinct payload gets its own, a
// stray "instance" input never redirects it, members whose payload was
// released leave their instances in Unowned, and what the plan left out is
// the claiming member's Unscheduled.
func TestSolveAttribution(t *testing.T) {
	h := newHarness(t, Settings{Strategy: "attribute"})
	h.skip["vce-004"] = true
	attr := func(k string) Scope {
		return Scope{Scope: []string{"vce-000"}, Attrs: map[string]map[string]string{"vce-000": {k: "x"}}}
	}
	changes := []Change{
		h.change("chg-a", "v7", attr("cfg_dns")),
		h.change("chg-b", "v7", attr("cfg_mtu")),
		h.change("chg-c", "v8", attr("cfg_ntp")),
		h.change("chg-d", "v7", Scope{Scope: []string{"vce-002"}}),            // payload released before the solve
		h.change("chg-e", "v7", Scope{Scope: []string{"vce-004", "vce-005"}}), // vce-004 not planned
	}
	changes[2].Inputs["instance"] = "vce-003"
	var members []*compose.Delta
	for _, ch := range changes {
		sig := PayloadSig(ch.Deployment.API, ch.Inputs)
		d, err := Delta(ch.ID, ch.Tenant, h.Intent(), h.cfg.Inventory, ch.Scope, sig)
		if err != nil {
			t.Fatal(err)
		}
		members = append(members, d)
		if ch.ID == "chg-d" {
			continue
		}
		if err := h.payloads.acquire(ch.ID, ch.Deployment, ch.Inputs, sig); err != nil {
			t.Fatal(err)
		}
	}
	res, err := h.solve(context.Background(), compose.Merge("cmp-1", members...), members)
	if err != nil {
		t.Fatal(err)
	}
	run := res.(*Run)

	sort.Strings(h.ran)
	if want := []string{"vce-000@v7", "vce-000@v8", "vce-005@v7"}; !reflect.DeepEqual(h.ran, want) {
		t.Errorf("executed %v, want %v", h.ran, want)
	}
	if want := map[string][]string{
		servedKey("vce-000", "chg-a"): {"chg-a", "chg-b"},
		servedKey("vce-000", "chg-c"): {"chg-c"},
		servedKey("vce-005", "chg-e"): {"chg-e"},
	}; !reflect.DeepEqual(run.Served, want) {
		t.Errorf("Served = %v, want %v", run.Served, want)
	}
	if want := []string{"vce-002"}; !reflect.DeepEqual(run.Unowned, want) {
		t.Errorf("Unowned = %v, want %v", run.Unowned, want)
	}
	if want := []string{"chg-a", "chg-b", "chg-c"}; !reflect.DeepEqual(run.Owners["vce-000"], want) {
		t.Errorf("Owners[vce-000] = %v, want %v", run.Owners["vce-000"], want)
	}
	for id, want := range map[string]struct {
		instances, unscheduled []string
	}{
		"chg-a": {[]string{"vce-000"}, nil}, "chg-b": {[]string{"vce-000"}, nil}, "chg-c": {[]string{"vce-000"}, nil},
		"chg-d": {nil, nil}, "chg-e": {[]string{"vce-005"}, []string{"vce-004"}},
	} {
		m := run.member(id, &compose.Outcome{})
		var instances []string
		for _, e := range m.Executions {
			instances = append(instances, e.Instance)
		}
		if m.Status != "composed" || !reflect.DeepEqual(instances, want.instances) || !reflect.DeepEqual(m.Unscheduled, want.unscheduled) {
			t.Errorf("member %s = %+v, want executions on %v, unscheduled %v", id, m, want.instances, want.unscheduled)
		}
	}
}

// TestHaltedDispatchFailsTheMember: when the run's context ends after the
// first slot, the instances never dispatched come back on their member's
// answer as failed executions, not as a shorter "composed" one.
func TestHaltedDispatchFailsTheMember(t *testing.T) {
	h := newHarness(t, Settings{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	h.onRun = cancel
	ch := h.change("chg-east", "v7", Scope{Markets: []string{"east"}}) // vce-000, -002, -004 in slots 0, 1, 2
	sig := PayloadSig(ch.Deployment.API, ch.Inputs)
	d, err := Delta(ch.ID, ch.Tenant, h.Intent(), h.cfg.Inventory, ch.Scope, sig)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.payloads.acquire(ch.ID, ch.Deployment, ch.Inputs, sig); err != nil {
		t.Fatal(err)
	}
	res, err := h.solve(ctx, compose.Merge("cmp-1", d), []*compose.Delta{d})
	if err != nil {
		t.Fatal(err)
	}
	m := res.(*Run).member(ch.ID, &compose.Outcome{})
	if want := []string{"vce-000@v7"}; !reflect.DeepEqual(h.ran, want) {
		t.Fatalf("executed %v, want %v", h.ran, want)
	}
	if m.Status != "failed" || len(m.Executions) != 3 {
		t.Fatalf("member = %+v, want failed with three executions", m)
	}
	for _, e := range m.Executions[1:] {
		if e.Status != "" || !strings.Contains(e.Error, orchestrator.ErrHalted.Error()) {
			t.Errorf("execution on %s = %+v, want a halted error and no status", e.Instance, e)
		}
	}
}

// TestSubmitComposesAndRefusesAPayloadClash goes through Submit: two
// disjoint changes share one plan and each gets its own executions back; a
// pending change id resubmitted with different inputs — whose
// attribute-level delta is equal, so the composer would join it
// idempotently — is refused, while the same payload joins.
func TestSubmitComposesAndRefusesAPayloadClash(t *testing.T) {
	h := newHarness(t, Settings{Window: time.Minute, MaxBatch: 2})
	var wg sync.WaitGroup
	outs := make([]*Member, 2)
	for n, ch := range []Change{
		h.change("chg-east", "v7", Scope{Markets: []string{"east"}}),
		h.change("chg-west", "v8", Scope{Markets: []string{"west"}}),
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, err := h.Submit(context.Background(), ch, compose.Reject)
			if err != nil {
				t.Error(err)
			}
			outs[n] = m
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if h.plans != 1 || outs[0].Outcome.ComposedID != outs[1].Outcome.ComposedID || outs[0].Run != outs[1].Run {
		t.Fatalf("two disjoint members: %d plans, composed ids %s / %s", h.plans, outs[0].Outcome.ComposedID, outs[1].Outcome.ComposedID)
	}
	for n, m := range outs {
		if len(m.Executions) != 3 || len(m.Run.Results) != 6 || m.Status != "composed" {
			t.Fatalf("member %d = %+v", n, m)
		}
	}
	if len(h.payloads.pending) != 0 {
		t.Fatalf("payloads still pending after the run: %v", h.payloads.pending)
	}

	attrs := Scope{Scope: []string{"vce-000"}, Attrs: map[string]map[string]string{"vce-000": {"cfg_mtu": "1400"}}}
	ctx, cancel := context.WithCancel(context.Background())
	first := make(chan error, 2)
	for i := 0; i < 2; i++ { // the second is the idempotent twin
		go func() {
			_, err := h.Submit(ctx, h.change("chg-twice", "v7", attrs), compose.Reject)
			first <- err
		}()
	}
	for deadline := time.Now().Add(5 * time.Second); h.payloads.get("chg-twice") == nil || h.payloads.get("chg-twice").refs < 2; {
		if time.Now().After(deadline) {
			t.Fatal("the twin submissions never both became pending")
		}
		time.Sleep(time.Millisecond)
	}
	_, err := h.Submit(context.Background(), h.change("chg-twice", "v9", attrs), compose.Reject)
	var refused *RefusedError
	if !errors.As(err, &refused) || !strings.Contains(err.Error(), "already pending with a different payload") {
		t.Fatalf("resubmission with different inputs: err = %v, want a RefusedError", err)
	}
	cancel()
	for i := 0; i < 2; i++ {
		if err := <-first; !errors.Is(err, context.Canceled) {
			t.Fatalf("withdrawn submission: err = %v", err)
		}
	}
	if len(h.payloads.pending) != 0 {
		t.Fatalf("payloads still pending after withdrawal: %v", h.payloads.pending)
	}
}

func TestNewValidates(t *testing.T) {
	if _, err := New(Config{Settings: Settings{Strategy: "telepathy"}}); err == nil {
		t.Error("unknown strategy accepted")
	}
	if _, err := New(Config{}); err == nil {
		t.Error("a Config with no inventory, planner or engine accepted")
	}
	h := newHarness(t, Settings{Conflict: "queue"})
	if mode, err := h.Mode(""); err != nil || mode != compose.Queue {
		t.Errorf(`Mode("") = %v, %v, want the configured default`, mode, err)
	}
	if mode, err := h.Mode("reject"); err != nil || mode != compose.Reject {
		t.Errorf(`Mode("reject") = %v, %v`, mode, err)
	}
	if _, err := h.Mode("explode"); err == nil {
		t.Error("unknown conflict mode accepted")
	}
}
