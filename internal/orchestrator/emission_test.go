package orchestrator

// The golden emission table: one Execute per way a workflow can go, and for
// each everything the engine tells the outside about it — journal events,
// metric deltas, the span tree and log records — compared with
// testdata/emission.golden. Rewrite the file with `go test
// ./internal/orchestrator -run TestEmissionGolden -update` and read the diff.

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"cornet/internal/obs"
	"cornet/internal/obs/events"
	"cornet/internal/orchestrator/resilience"
	"cornet/internal/workflow"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/emission.golden from this run")

const goldenPath = "testdata/emission.golden"

// reply is one scripted answer of a block API.
type reply struct {
	out map[string]string
	err error
}

// scriptInvoker answers each API from its queue of replies, then with
// success; hook runs before the reply is chosen.
type scriptInvoker struct {
	mu      sync.Mutex
	replies map[string][]reply
	hook    func(api string)
}

func (s *scriptInvoker) Invoke(ctx context.Context, api string, args map[string]string) (map[string]string, error) {
	if s.hook != nil {
		s.hook(api)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if q := s.replies[api]; len(q) > 0 {
		s.replies[api] = q[1:]
		return q[0].out, q[0].err
	}
	return map[string]string{"status": "success", "verdict": "no-impact"}, nil
}

// logCapture is a slog.Handler that keeps message, level and attribute keys.
type logCapture struct {
	mu    *sync.Mutex
	lines *[]string
}

func (logCapture) Enabled(context.Context, slog.Level) bool { return true }
func (c logCapture) WithAttrs([]slog.Attr) slog.Handler     { return c }
func (c logCapture) WithGroup(string) slog.Handler          { return c }
func (c logCapture) Handle(_ context.Context, r slog.Record) error {
	var keys []string
	r.Attrs(func(a slog.Attr) bool {
		keys = append(keys, a.Key)
		return true
	})
	sort.Strings(keys)
	c.mu.Lock()
	*c.lines = append(*c.lines, fmt.Sprintf("%s %q %s", r.Level, r.Message, strings.Join(keys, ",")))
	c.mu.Unlock()
	return nil
}

// metricValues reads every series of the process registry but the
// histograms' buckets and sums, which follow wall time.
func metricValues(t *testing.T) map[string]float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.Default.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		name := line[:i]
		if base, _, _ := strings.Cut(name, "{"); strings.HasSuffix(base, "_bucket") || strings.HasSuffix(base, "_sum") {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("metric line %q: %v", line, err)
		}
		out[name] = v
	}
	return out
}

// kv renders a map as sorted k=v pairs.
func kv(m map[string]any) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var parts []string
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%v", k, m[k]))
	}
	return strings.Join(parts, " ")
}

func writeSpan(b *strings.Builder, sp *obs.SpanExport, indent string) {
	fmt.Fprintf(b, "%s%s {%s}", indent, sp.Name, kv(sp.Attrs))
	if sp.Error != "" {
		fmt.Fprintf(b, " error=%q", sp.Error)
	}
	b.WriteByte('\n')
	for _, ev := range sp.Events {
		fmt.Fprintf(b, "%s  @ %s {%s}\n", indent, ev.Msg, kv(ev.Attrs))
	}
	for _, c := range sp.Children {
		writeSpan(b, c, indent+"  ")
	}
}

// emissionCase is one row of the table. run drives the engine; the default
// is one Execute with goldenInputs.
type emissionCase struct {
	name     string
	defaults resilience.Policy
	breakers *resilience.BreakerConfig
	replies  map[string][]reply
	run      func(t *testing.T, ctx context.Context, eng *Engine, inv *scriptInvoker, dep *workflow.Deployment)
}

var goldenInputs = map[string]string{"instance": "enb1", "sw_version": "v2", "prior_version": "v1"}

var errTransient = errors.New("transient: ssh down")

func failing(n int) []reply {
	q := make([]reply, n)
	for i := range q {
		q[i].err = errTransient
	}
	return q
}

// resumeWhenPaused waits for a started execution to park as paused,
// resumes it and waits for its end.
func resumeWhenPaused(t *testing.T, exec *Execution, done <-chan struct{}) {
	t.Helper()
	eventually(t, "the execution to pause", func() bool {
		st, _ := exec.snapshotStatus()
		return st == StatusPaused
	})
	exec.Resume()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("resumed execution did not finish")
	}
}

func emissionCases() []emissionCase {
	retry := resilience.Policy{MaxAttempts: 2, Backoff: resilience.Backoff{Base: resilience.Duration(time.Millisecond)}}
	onExhausted := func(a resilience.Action) resilience.Policy {
		p := retry
		p.OnExhausted = a
		return p
	}
	upgradeFails := func() map[string][]reply {
		return map[string][]reply{"/bb/software-upgrade": failing(2)}
	}
	return []emissionCase{
		{name: "success"},
		{name: "retry-then-success", defaults: retry,
			replies: map[string][]reply{"/bb/software-upgrade": failing(1)}},
		{name: "degradation-runs-the-rollback-node",
			replies: map[string][]reply{"/bb/pre-post-comparison": {{out: map[string]string{"verdict": "degradation"}}}}},
		{name: "action-continue", defaults: onExhausted(resilience.ActionContinue), replies: upgradeFails()},
		{name: "action-skip", defaults: onExhausted(resilience.ActionSkip), replies: upgradeFails()},
		{name: "action-abort", defaults: onExhausted(resilience.ActionAbort), replies: upgradeFails()},
		{name: "action-pause-then-resume", defaults: resilience.Policy{OnExhausted: resilience.ActionPause},
			replies: map[string][]reply{"/bb/software-upgrade": failing(1)},
			run: func(t *testing.T, ctx context.Context, eng *Engine, _ *scriptInvoker, dep *workflow.Deployment) {
				exec, done := eng.Start(ctx, dep, goldenInputs)
				resumeWhenPaused(t, exec, done)
			}},
		{name: "action-rollback", defaults: onExhausted(resilience.ActionRollback), replies: upgradeFails()},
		{name: "action-rollback-compensation-reports-failure", defaults: onExhausted(resilience.ActionRollback),
			replies: map[string][]reply{
				"/bb/software-upgrade": failing(2),
				"/bb/roll-back":        {{out: map[string]string{"status": "failure", "detail": "x"}}},
			}},
		{name: "action-rollback-compensation-errors", defaults: onExhausted(resilience.ActionRollback),
			replies: map[string][]reply{
				"/bb/software-upgrade": failing(2),
				"/bb/roll-back":        {{err: errors.New("box gone")}},
			}},
		{name: "operator-pause-then-resume",
			run: func(t *testing.T, ctx context.Context, eng *Engine, inv *scriptInvoker, dep *workflow.Deployment) {
				handle := make(chan *Execution, 1)
				inv.hook = func(api string) {
					if api == "/bb/health-check" {
						(<-handle).Pause()
					}
				}
				exec, done := eng.Start(ctx, dep, goldenInputs)
				handle <- exec
				resumeWhenPaused(t, exec, done)
			}},
		{name: "breaker-trip", defaults: resilience.Policy{MaxAttempts: 3},
			breakers: &resilience.BreakerConfig{Threshold: 2, Cooldown: resilience.Duration(time.Hour)},
			replies:  map[string][]reply{"/bb/software-upgrade": failing(3)}},
		{name: "ctx-cancel-in-a-block",
			run: func(t *testing.T, ctx context.Context, eng *Engine, inv *scriptInvoker, dep *workflow.Deployment) {
				ctx, cancel := context.WithCancel(ctx)
				defer cancel()
				inv.hook = func(api string) {
					if api == "/bb/software-upgrade" {
						cancel()
					}
				}
				inv.replies = map[string][]reply{"/bb/software-upgrade": {{err: context.Canceled}}}
				_, _ = eng.Execute(ctx, dep, goldenInputs)
			}},
		{name: "ctx-cancelled-before-the-first-block",
			run: func(t *testing.T, ctx context.Context, eng *Engine, _ *scriptInvoker, dep *workflow.Deployment) {
				ctx, cancel := context.WithCancel(ctx)
				cancel()
				_, _ = eng.Execute(ctx, dep, goldenInputs)
			}},
	}
}

// snapshot runs one case and renders what it emitted.
func (c emissionCase) snapshot(t *testing.T) string {
	dep := deploy(t, workflow.SoftwareUpgrade())
	inv := &scriptInvoker{replies: c.replies}
	eng := NewEngine(inv)
	eng.Defaults = c.defaults
	eng.Sleep = func(ctx context.Context, _ time.Duration) error { return ctx.Err() }
	var (
		logMu sync.Mutex
		logs  []string
	)
	eng.Log = slog.New(obs.ContextHandler{Handler: logCapture{mu: &logMu, lines: &logs}})
	if c.breakers != nil {
		// A still clock keeps the cooldown left, which the rejection's
		// error text carries, at the whole cooldown.
		now := time.Now()
		eng.EnableBreakers(*c.breakers).Clock = func() time.Time { return now }
	}

	ctx := obs.WithTenant(obs.WithChangeID(context.Background(), "chg-golden"), "team-a")
	ctx, root := obs.StartTrace(ctx, "golden")
	seq := events.Default.LastSeq()
	before := metricValues(t)
	if c.run != nil {
		c.run(t, ctx, eng, inv, dep)
	} else {
		_, _ = eng.Execute(ctx, dep, goldenInputs)
	}
	root.End()
	after := metricValues(t)

	var b strings.Builder
	fmt.Fprintf(&b, "=== %s\nevents:\n", c.name)
	for _, e := range events.Default.Query(events.Filter{SinceSeq: seq}) {
		fmt.Fprintf(&b, "  %s source=%s change=%s tenant=%s {%s}\n", e.Type, e.Source, e.ChangeID, e.Tenant, kv(e.Fields))
	}
	b.WriteString("metrics:\n")
	var names []string
	for name, v := range after {
		if v != before[name] {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "  %s %+g\n", name, after[name]-before[name])
	}
	b.WriteString("spans:\n")
	for _, sp := range root.Export().Children {
		writeSpan(&b, sp, "  ")
	}
	b.WriteString("logs:\n")
	logMu.Lock()
	for _, l := range logs {
		fmt.Fprintf(&b, "  %s\n", l)
	}
	logMu.Unlock()
	return b.String()
}

func TestEmissionGolden(t *testing.T) {
	var got strings.Builder
	for _, c := range emissionCases() {
		got.WriteString(c.snapshot(t))
	}
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() == string(want) {
		return
	}
	// Report the first case that moved, whole, so the diff reads as one story.
	wantCases := strings.Split(string(want), "=== ")
	gotCases := strings.Split(got.String(), "=== ")
	for i := range gotCases {
		if i >= len(wantCases) {
			t.Fatalf("a case the golden does not have:\n=== %s", gotCases[i])
		}
		if gotCases[i] != wantCases[i] {
			t.Fatalf("emission moved; first differing case\n--- got\n=== %s--- want\n=== %s", gotCases[i], wantCases[i])
		}
	}
	t.Fatalf("golden has %d cases, run produced %d", len(wantCases)-1, len(gotCases)-1)
}
