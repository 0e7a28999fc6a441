package orchestrator

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cornet/internal/workflow"
)

// gateInvoker counts the invocations in flight and holds each one until
// release is closed, so a test can look at the engine while it is full.
type gateInvoker struct {
	cur, peak, calls atomic.Int64
	release          chan struct{}
}

func newGateInvoker() *gateInvoker { return &gateInvoker{release: make(chan struct{})} }

func (g *gateInvoker) Invoke(ctx context.Context, api string, args map[string]string) (map[string]string, error) {
	g.calls.Add(1)
	n := g.cur.Add(1)
	for {
		pk := g.peak.Load()
		if n <= pk || g.peak.CompareAndSwap(pk, n) {
			break
		}
	}
	<-g.release
	g.cur.Add(-1)
	return map[string]string{"status": "success", "verdict": "no-impact"}, nil
}

// eventually polls cond for up to 2s; it fails the test on timeout.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

var upgradeInputs = map[string]string{"instance": "enb1", "sw_version": "v2"}

// Execute and Start draw on the same Concurrency slots: with a bound of two
// and six executions asked for, exactly two blocks are ever in flight.
func TestEngineBoundCoversExecuteAndStart(t *testing.T) {
	const bound = 2
	inv := newGateInvoker()
	eng := NewEngine(inv)
	eng.Concurrency = bound
	dep := deploy(t, workflow.SoftwareUpgrade())

	var execs sync.WaitGroup
	var dones []<-chan struct{}
	for i := 0; i < 3; i++ {
		_, done := eng.Start(context.Background(), dep, upgradeInputs)
		dones = append(dones, done)
		execs.Add(1)
		go func() {
			defer execs.Done()
			if _, err := eng.Execute(context.Background(), dep, upgradeInputs); err != nil {
				t.Errorf("Execute: %v", err)
			}
		}()
	}
	eventually(t, "the engine to fill", func() bool { return inv.cur.Load() == bound })
	time.Sleep(10 * time.Millisecond) // a third execution would show up now
	if got := inv.calls.Load(); got != bound {
		t.Fatalf("%d blocks invoked with every slot held, want %d", got, bound)
	}
	close(inv.release)
	execs.Wait()
	for _, done := range dones {
		<-done
	}
	if got := inv.peak.Load(); got != bound {
		t.Fatalf("peak in flight = %d, want %d", got, bound)
	}
	if got := inv.calls.Load(); got != 6*3 {
		t.Fatalf("blocks invoked = %d, want 18", got)
	}
}

// A caller whose context ends while every slot is taken gets its execution
// back failed as halted, without waiting for a slot and without any of its
// blocks invoked.
func TestExecuteHaltedWhileWaitingForSlot(t *testing.T) {
	inv := newGateInvoker()
	eng := NewEngine(inv)
	eng.Concurrency = 1
	dep := deploy(t, workflow.SoftwareUpgrade())
	_, holderDone := eng.Start(context.Background(), dep, upgradeInputs)
	eventually(t, "the holder's first block", func() bool { return inv.cur.Load() == 1 })

	ctx, cancel := context.WithCancel(context.Background())
	type outcome struct {
		exec *Execution
		err  error
	}
	got := make(chan outcome, 1)
	go func() {
		exec, err := eng.Execute(ctx, dep, upgradeInputs)
		got <- outcome{exec, err}
	}()
	time.Sleep(5 * time.Millisecond) // let it reach the wait
	cancel()
	select {
	case o := <-got:
		if o.err == nil || o.exec.Status != StatusFailure || !strings.Contains(o.exec.Err, ErrHalted.Error()) {
			t.Fatalf("waiter: status %s, err %q, want a halted failure", o.exec.Status, o.exec.Err)
		}
		if len(o.exec.Logs) != 0 {
			t.Fatalf("halted waiter ran %d blocks", len(o.exec.Logs))
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Execute still waiting for a slot after its context ended")
	}
	if n := inv.calls.Load(); n != 1 {
		t.Fatalf("blocks invoked = %d, want only the holder's first", n)
	}
	close(inv.release)
	<-holderDone
}

// Composed strategies that promise no parallelism dispatch with a bound of
// one and rely on a slot's changes starting in (instance, change id) order.
func TestDispatcherBoundOneStartsInSortedOrder(t *testing.T) {
	var mu sync.Mutex
	var started []string
	inv := InvokerFunc(func(ctx context.Context, api string, args map[string]string) (map[string]string, error) {
		mu.Lock()
		started = append(started, args["instance"]+"/"+args["tag"])
		mu.Unlock()
		return map[string]string{"status": "success"}, nil
	})
	dep := deploy(t, workflow.DownloadInstall())
	var changes []ScheduledChange
	for _, c := range []struct{ inst, id string }{
		{"n3", "chg-a"}, {"n1", "chg-b"}, {"n2", "chg-a"}, {"n1", "chg-a"}, {"n2", "chg-b"},
	} {
		changes = append(changes, ScheduledChange{Instance: c.inst, ChangeID: c.id,
			Inputs: map[string]string{"sw_version": "v2", "tag": c.id}})
	}
	results := NewDispatcher(NewEngine(inv), 1).Run(context.Background(),
		func(ScheduledChange) (*workflow.Deployment, error) { return dep, nil }, changes)
	want := []string{"n1/chg-a", "n1/chg-b", "n2/chg-a", "n2/chg-b", "n3/chg-a"}
	if strings.Join(started, " ") != strings.Join(want, " ") {
		t.Fatalf("start order %v, want %v", started, want)
	}
	for i, r := range results {
		if got := r.Instance + "/" + r.ChangeID; got != want[i] || r.Err != nil {
			t.Fatalf("results[%d] = %s (err %v), want %s", i, got, r.Err, want[i])
		}
	}
}

// A cancellation during the first of three slots still yields one result
// per change: the later slots' changes come back halted, not dropped.
func TestDispatcherAccountsForHaltedSlots(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	inv := InvokerFunc(func(context.Context, string, map[string]string) (map[string]string, error) {
		cancel()
		return map[string]string{"status": "success"}, nil
	})
	dep := deploy(t, workflow.DownloadInstall())
	var changes []ScheduledChange
	for slot := 0; slot < 3; slot++ {
		for _, inst := range []string{"a", "b"} {
			changes = append(changes, ScheduledChange{Instance: inst, Timeslot: slot,
				Inputs: map[string]string{"sw_version": "v2"}})
		}
	}
	var slotsStarted []int
	d := NewDispatcher(NewEngine(inv), 2)
	d.OnSlotStart = func(slot, n int) { slotsStarted = append(slotsStarted, slot) }
	haltedBefore := metricDispatched.With("halted").Value()
	results := d.Run(ctx, func(ScheduledChange) (*workflow.Deployment, error) { return dep, nil }, changes)

	if len(results) != len(changes) {
		t.Fatalf("%d results for %d changes", len(results), len(changes))
	}
	if len(slotsStarted) != 1 || slotsStarted[0] != 0 {
		t.Fatalf("slots started = %v, want only slot 0", slotsStarted)
	}
	for i, r := range results {
		if want := i / 2; r.Timeslot != want {
			t.Fatalf("results[%d].Timeslot = %d, want %d", i, r.Timeslot, want)
		}
		if r.Timeslot == 0 {
			if r.Exec == nil {
				t.Fatalf("slot 0 change %s has no execution", r.Instance)
			}
			continue
		}
		if r.Exec != nil || !errors.Is(r.Err, ErrHalted) {
			t.Fatalf("slot %d change %s: exec %v, err %v; want nil exec and ErrHalted", r.Timeslot, r.Instance, r.Exec, r.Err)
		}
	}
	if got := metricDispatched.With("halted").Value() - haltedBefore; got != 4 {
		t.Fatalf("halted counter moved by %v, want 4", got)
	}
}

// The execution paths own no goroutine that outlives them: not a dispatch,
// not a plain Execute, not started executions once their done channels
// have closed.
func TestExecutionLeavesNoGoroutines(t *testing.T) {
	dep := deploy(t, workflow.SoftwareUpgrade())
	resolve := func(ScheduledChange) (*workflow.Deployment, error) { return dep, nil }
	cases := map[string]func(){
		"dispatcher run": func() {
			var changes []ScheduledChange
			for i := 0; i < 8; i++ {
				changes = append(changes, ScheduledChange{Instance: string(rune('a' + i)), Timeslot: i / 4,
					Inputs: map[string]string{"sw_version": "v2"}})
			}
			NewDispatcher(NewEngine(&fakeInvoker{}), 4).Run(context.Background(), resolve, changes)
		},
		"execute without shutdown": func() {
			if _, err := NewEngine(&fakeInvoker{}).Execute(context.Background(), dep, upgradeInputs); err != nil {
				t.Errorf("Execute: %v", err)
			}
		},
		"shutdown after starts": func() {
			eng := NewEngine(&fakeInvoker{})
			var dones []<-chan struct{}
			for i := 0; i < 3; i++ {
				_, done := eng.Start(context.Background(), dep, upgradeInputs)
				dones = append(dones, done)
			}
			for _, done := range dones {
				<-done
			}
		},
	}
	for name, run := range cases {
		t.Run(name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			run()
			eventually(t, "goroutines to exit", func() bool { return runtime.NumGoroutine() <= before })
		})
	}
}
