package orchestrator

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cornet/internal/obs/events"
	"cornet/internal/orchestrator/resilience"
	"cornet/internal/workflow"
)

// fakeInvoker records invocations and returns scripted outputs keyed by API.
type fakeInvoker struct {
	mu      sync.Mutex
	calls   []string
	outputs map[string]map[string]string
	errs    map[string]error
	delay   time.Duration
	block   chan struct{} // if non-nil, Invoke waits on it once per call
}

func (f *fakeInvoker) Invoke(ctx context.Context, api string, args map[string]string) (map[string]string, error) {
	f.mu.Lock()
	f.calls = append(f.calls, api)
	f.mu.Unlock()
	if f.block != nil {
		<-f.block
	}
	if f.delay > 0 {
		time.Sleep(f.delay)
	}
	if err := f.errs[api]; err != nil {
		return nil, err
	}
	if out := f.outputs[api]; out != nil {
		return out, nil
	}
	return map[string]string{"status": "success", "verdict": "no-impact"}, nil
}

func (f *fakeInvoker) calledAPIs() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.calls...)
}

func deploy(t testing.TB, w *workflow.Workflow) *workflow.Deployment {
	t.Helper()
	dep, err := workflow.Deploy(w, "eNodeB", func(block, nf string) (string, error) {
		return "/bb/" + block, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return dep
}

func TestExecuteHappyPath(t *testing.T) {
	inv := &fakeInvoker{}
	eng := NewEngine(inv)
	dep := deploy(t, workflow.SoftwareUpgrade())
	exec, err := eng.Execute(context.Background(), dep,
		map[string]string{"instance": "enb1", "sw_version": "v2"})
	if err != nil {
		t.Fatal(err)
	}
	if exec.Status != StatusSuccess {
		t.Fatalf("status = %s", exec.Status)
	}
	apis := inv.calledAPIs()
	// Health check, upgrade, pre/post comparison; roll-back skipped.
	want := []string{"/bb/health-check", "/bb/software-upgrade", "/bb/pre-post-comparison"}
	if len(apis) != len(want) {
		t.Fatalf("calls = %v", apis)
	}
	for i := range want {
		if apis[i] != want[i] {
			t.Fatalf("calls = %v, want %v", apis, want)
		}
	}
	if len(exec.Logs) != 3 {
		t.Fatalf("logs = %v", exec.Logs)
	}
	for _, l := range exec.Logs {
		if l.Status != StatusSuccess {
			t.Fatalf("block %s status %s", l.NodeID, l.Status)
		}
	}
}

func TestExecuteHealthCheckFailureEndsEarly(t *testing.T) {
	inv := &fakeInvoker{outputs: map[string]map[string]string{
		"/bb/health-check": {"status": "failure"},
	}}
	eng := NewEngine(inv)
	dep := deploy(t, workflow.SoftwareUpgrade())
	exec, err := eng.Execute(context.Background(), dep,
		map[string]string{"instance": "enb1", "sw_version": "v2"})
	if err != nil {
		t.Fatal(err)
	}
	// Workflow reaches end via the "no" branch: overall success (a
	// complete start-to-end flow), but no upgrade happened.
	if exec.Status != StatusSuccess {
		t.Fatalf("status = %s", exec.Status)
	}
	for _, api := range inv.calledAPIs() {
		if api == "/bb/software-upgrade" {
			t.Fatal("upgrade invoked despite failed health check")
		}
	}
}

func TestExecuteRollbackOnBadComparison(t *testing.T) {
	inv := &fakeInvoker{outputs: map[string]map[string]string{
		"/bb/pre-post-comparison": {"verdict": "degradation"},
	}}
	eng := NewEngine(inv)
	dep := deploy(t, workflow.SoftwareUpgrade())
	exec, err := eng.Execute(context.Background(), dep,
		map[string]string{"instance": "enb1", "sw_version": "v2", "prior_version": "v1"})
	if err != nil {
		t.Fatal(err)
	}
	if exec.Status != StatusSuccess {
		t.Fatalf("status = %s", exec.Status)
	}
	apis := inv.calledAPIs()
	if apis[len(apis)-1] != "/bb/roll-back" {
		t.Fatalf("roll-back not invoked: %v", apis)
	}
}

// A compensation block that answers with status "failure" did not roll the
// change back: it is a failed block in the logs, the counters and the
// journal, exactly as one whose invocation returned an error.
func TestCompensationReportingFailureIsAFailedBlock(t *testing.T) {
	inv := &fakeInvoker{
		errs:    map[string]error{"/bb/software-upgrade": errors.New("image rejected")},
		outputs: map[string]map[string]string{"/bb/roll-back": {"status": "failure", "detail": "x"}},
	}
	eng := NewEngine(inv)
	eng.Defaults = resilience.Policy{OnExhausted: resilience.ActionRollback}
	failed := metricBBInvocations.With("roll-back", "failure").Value()
	succeeded := metricBBInvocations.With("roll-back", "success").Value()
	seq := events.Default.LastSeq()

	exec, err := eng.Execute(context.Background(), deploy(t, workflow.SoftwareUpgrade()),
		map[string]string{"instance": "enb1", "sw_version": "v2"})
	if err == nil || exec.Status != StatusRolledBack {
		t.Fatalf("status = %s, err = %v; want rolled back", exec.Status, err)
	}
	comp := exec.Logs[len(exec.Logs)-1]
	if comp.Block != "roll-back" || comp.Status != StatusFailure || comp.Err != "compensation reported failure: x" {
		t.Fatalf("compensation log = %+v", comp)
	}
	if got := exec.FailedBlocks(); len(got) != 2 || got[1] != comp.NodeID {
		t.Fatalf("FailedBlocks = %v, want the upgrade node twice (block, then compensation)", got)
	}
	if d := metricBBInvocations.With("roll-back", "failure").Value() - failed; d != 1 {
		t.Errorf("roll-back failure counter moved by %v, want 1", d)
	}
	if d := metricBBInvocations.With("roll-back", "success").Value() - succeeded; d != 0 {
		t.Errorf("roll-back success counter moved by %v, want 0", d)
	}
	rb := events.Default.Query(events.Filter{Types: []events.Type{events.TypeRollback}, SinceSeq: seq})
	if len(rb) != 1 || rb[0].Fields["status"] != "failure" {
		t.Fatalf("wf.rollback events = %+v, want one with status failure", rb)
	}
}

func TestExecuteMissingRequiredInput(t *testing.T) {
	eng := NewEngine(&fakeInvoker{})
	dep := deploy(t, workflow.SoftwareUpgrade())
	exec, err := eng.Execute(context.Background(), dep, map[string]string{"instance": "enb1"})
	if err == nil || exec.Status != StatusFailure {
		t.Fatalf("missing input accepted: %v / %s", err, exec.Status)
	}
	if !strings.Contains(exec.Err, "sw_version") {
		t.Fatalf("Err = %s", exec.Err)
	}
}

func TestExecuteInvokerErrorRoutedThroughDecision(t *testing.T) {
	// The health-check invocation itself errors; Saves record "failure" so
	// the decision takes the no branch and the workflow still completes.
	inv := &fakeInvoker{errs: map[string]error{"/bb/health-check": errors.New("ssh connectivity issue")}}
	eng := NewEngine(inv)
	dep := deploy(t, workflow.SoftwareUpgrade())
	exec, err := eng.Execute(context.Background(), dep,
		map[string]string{"instance": "enb1", "sw_version": "v2"})
	if err != nil {
		t.Fatal(err)
	}
	if got := exec.FailedBlocks(); len(got) != 1 || got[0] != "health" {
		t.Fatalf("FailedBlocks = %v", got)
	}
	if exec.Logs[0].Err != "ssh connectivity issue" {
		t.Fatalf("log err = %q", exec.Logs[0].Err)
	}
	for _, api := range inv.calledAPIs() {
		if api == "/bb/software-upgrade" {
			t.Fatal("upgrade ran after failed health check invocation")
		}
	}
}

func TestExecuteContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eng := NewEngine(&fakeInvoker{})
	dep := deploy(t, workflow.SoftwareUpgrade())
	exec, err := eng.Execute(ctx, dep,
		map[string]string{"instance": "enb1", "sw_version": "v2"})
	if err == nil || exec.Status != StatusFailure {
		t.Fatalf("cancelled execution succeeded: %v", exec.Status)
	}
}

func TestPauseResume(t *testing.T) {
	release := make(chan struct{})
	inv := &fakeInvoker{block: release}
	eng := NewEngine(inv)
	dep := deploy(t, workflow.SoftwareUpgrade())
	exec, done := eng.Start(context.Background(), dep,
		map[string]string{"instance": "enb1", "sw_version": "v2"})

	// Let the first block start, request a pause, then release the block.
	for len(inv.calledAPIs()) == 0 {
		time.Sleep(time.Millisecond)
	}
	exec.Pause()
	release <- struct{}{} // health-check completes atomically

	// The engine must now be paused before invoking the next block.
	deadline := time.After(2 * time.Second)
	for {
		exec.mu.Lock()
		st := exec.Status
		exec.mu.Unlock()
		if st == StatusPaused {
			break
		}
		select {
		case <-deadline:
			t.Fatal("engine never paused")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	if n := len(inv.calledAPIs()); n != 1 {
		t.Fatalf("blocks invoked while paused: %d", n)
	}

	// Resume and drain the remaining two block invocations.
	exec.Resume()
	for i := 0; i < 2; i++ {
		release <- struct{}{}
	}
	<-done
	if exec.Status != StatusSuccess {
		t.Fatalf("status after resume = %s (%s)", exec.Status, exec.Err)
	}
	if n := len(inv.calledAPIs()); n != 3 {
		t.Fatalf("total invocations = %d", n)
	}
}

func TestExecuteCycleGuard(t *testing.T) {
	// Hand-built cyclic graph (bypasses Verify): engine must not hang.
	w := workflow.New("cyclic")
	w.AddNode(workflow.Node{ID: "start", Kind: workflow.Start}).
		AddNode(workflow.Node{ID: "t", Kind: workflow.Task, Block: "b"}).
		AddNode(workflow.Node{ID: "d", Kind: workflow.Decision, Cond: "never"}).
		AddNode(workflow.Node{ID: "end", Kind: workflow.End})
	w.AddEdge("start", "t", "").AddEdge("t", "d", "").
		AddEdge("d", "end", "yes").AddEdge("d", "t", "no")
	dep := &workflow.Deployment{WorkflowName: "cyclic", Workflow: w,
		BlockAPIs: map[string]string{"b": "/bb/b"}}
	eng := NewEngine(&fakeInvoker{})
	eng.MaxSteps = 50
	exec, err := eng.Execute(context.Background(), dep, nil)
	if err == nil || !strings.Contains(exec.Err, "cyclic") {
		t.Fatalf("cycle not caught: %v %s", err, exec.Err)
	}
}

func TestArgsLiteralAndReference(t *testing.T) {
	var got map[string]string
	inv := InvokerFunc(func(ctx context.Context, api string, args map[string]string) (map[string]string, error) {
		if api == "/bb/target" {
			got = args
		}
		return map[string]string{"status": "success", "produced": "42"}, nil
	})
	w := workflow.New("args")
	w.AddInput("instance", true, "")
	w.AddNode(workflow.Node{ID: "start", Kind: workflow.Start}).
		AddNode(workflow.Node{ID: "producer", Kind: workflow.Task, Block: "producer",
			Saves: map[string]string{"produced": "the_var"}}).
		AddNode(workflow.Node{ID: "target", Kind: workflow.Task, Block: "target",
			Args: map[string]string{"lit": "=hello", "ref": "$the_var"}}).
		AddNode(workflow.Node{ID: "end", Kind: workflow.End})
	w.AddEdge("start", "producer", "").AddEdge("producer", "target", "").AddEdge("target", "end", "")
	dep, err := workflow.Deploy(w, "", func(b, n string) (string, error) { return "/bb/" + b, nil })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngine(inv).Execute(context.Background(), dep, map[string]string{"instance": "x"}); err != nil {
		t.Fatal(err)
	}
	if got["lit"] != "hello" {
		t.Fatalf("literal arg = %q", got["lit"])
	}
	if got["ref"] != "42" {
		t.Fatalf("reference arg = %q", got["ref"])
	}
	if got["instance"] != "x" {
		t.Fatalf("state propagation arg = %q", got["instance"])
	}
}

func TestDispatcherSlotOrderAndConcurrency(t *testing.T) {
	var inFlight, maxInFlight int64
	inv := InvokerFunc(func(ctx context.Context, api string, args map[string]string) (map[string]string, error) {
		cur := atomic.AddInt64(&inFlight, 1)
		for {
			prev := atomic.LoadInt64(&maxInFlight)
			if cur <= prev || atomic.CompareAndSwapInt64(&maxInFlight, prev, cur) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		atomic.AddInt64(&inFlight, -1)
		return map[string]string{"status": "success"}, nil
	})
	eng := NewEngine(inv)
	d := NewDispatcher(eng, 3)

	dep := deploy(t, workflow.DownloadInstall())
	var changes []ScheduledChange
	for slot := 2; slot >= 0; slot-- { // deliberately unsorted input
		for i := 0; i < 5; i++ {
			changes = append(changes, ScheduledChange{
				Instance: string(rune('a'+slot)) + string(rune('0'+i)),
				Timeslot: slot,
				Inputs:   map[string]string{"sw_version": "v2"},
			})
		}
	}
	var slotOrder []int
	d.OnSlotStart = func(slot, n int) { slotOrder = append(slotOrder, slot) }
	results := d.Run(context.Background(), func(ScheduledChange) (*workflow.Deployment, error) {
		return dep, nil
	}, changes)

	if len(results) != 15 {
		t.Fatalf("results = %d", len(results))
	}
	for i, want := range []int{0, 1, 2} {
		if slotOrder[i] != want {
			t.Fatalf("slotOrder = %v", slotOrder)
		}
	}
	for _, r := range results {
		if r.Err != nil || r.Exec.Status != StatusSuccess {
			t.Fatalf("result %s: %v", r.Instance, r.Err)
		}
	}
	if m := atomic.LoadInt64(&maxInFlight); m > 3 {
		t.Fatalf("concurrency exceeded: %d", m)
	}
	// Sorted output.
	for i := 1; i < len(results); i++ {
		a, b := results[i-1], results[i]
		if a.Timeslot > b.Timeslot || (a.Timeslot == b.Timeslot && a.Instance >= b.Instance) {
			t.Fatalf("results not ordered at %d", i)
		}
	}
}

func TestDispatcherResolverError(t *testing.T) {
	eng := NewEngine(&fakeInvoker{})
	d := NewDispatcher(eng, 1)
	results := d.Run(context.Background(),
		func(ScheduledChange) (*workflow.Deployment, error) { return nil, errors.New("no deployment") },
		[]ScheduledChange{{Instance: "x", Timeslot: 0}})
	if len(results) != 1 || results[0].Err == nil {
		t.Fatalf("results = %+v", results)
	}
}
