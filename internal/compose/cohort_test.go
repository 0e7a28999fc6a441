package compose

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock stands in for the composer's window timer: time moves, and
// timers fire, only when the test says so.
type fakeClock struct {
	mu     sync.Mutex
	now    time.Duration
	timers []*fakeTimer
	fired  int
}

type fakeTimer struct {
	at      time.Duration
	f       func()
	stopped bool
}

func (k *fakeClock) afterFunc(d time.Duration, f func()) func() bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	t := &fakeTimer{at: k.now + d, f: f}
	k.timers = append(k.timers, t)
	return func() bool {
		k.mu.Lock()
		defer k.mu.Unlock()
		was := !t.stopped
		t.stopped = true
		return was
	}
}

// advance moves the clock d forward, firing each due timer at its own
// deadline, in deadline order, on the caller's goroutine.
func (k *fakeClock) advance(d time.Duration) {
	k.mu.Lock()
	target := k.now + d
	for {
		var next *fakeTimer
		live := k.timers[:0]
		for _, t := range k.timers {
			if t.stopped {
				continue
			}
			live = append(live, t)
			if t.at <= target && (next == nil || t.at < next.at) {
				next = t
			}
		}
		k.timers = live
		if next == nil {
			break
		}
		next.stopped = true
		k.now = next.at
		k.fired++
		k.mu.Unlock()
		next.f()
		k.mu.Lock()
	}
	k.now = target
	k.mu.Unlock()
}

func (k *fakeClock) timersFired() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.fired
}

func (k *fakeClock) elapsed() time.Duration {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.now
}

const testWindow = 150 * time.Millisecond

// fakeTimed returns a composer whose window timer is a fakeClock.
func fakeTimed(t *testing.T, cfg Config) (*Composer, *fakeClock) {
	t.Helper()
	if cfg.Window == 0 {
		cfg.Window = testWindow
	}
	c := testComposer(t, cfg)
	k := &fakeClock{}
	c.afterFunc = k.afterFunc
	return c, k
}

type submitted struct {
	out *Outcome
	err error
}

// submitAsync runs Submit on its own goroutine and delivers the result.
func submitAsync(ctx context.Context, c *Composer, d *Delta) <-chan submitted {
	ch := make(chan submitted, 1)
	go func() {
		out, err := c.Submit(ctx, d, Reject)
		ch <- submitted{out, err}
	}()
	return ch
}

// parkedSubmits counts the goroutines blocked in Composer.Submit waiting
// for their generation: submissions that joined and have no outcome yet.
func parkedSubmits() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		header, frames, _ := strings.Cut(g, "\n")
		if strings.Contains(header, "[select") && strings.HasPrefix(frames, "cornet/internal/compose.(*Composer).Submit(") {
			n++
		}
	}
	return n
}

// waitPending spins until exactly n submissions wait in Submit.
func waitPending(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if parkedSubmits() == n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("%d submissions wait in Submit, want %d", parkedSubmits(), n)
}

// sealed receives a submission's outcome and checks what closed its
// generation and who was in it.
func sealed(t *testing.T, ch <-chan submitted, reason SealReason, members ...string) *Outcome {
	t.Helper()
	select {
	case s := <-ch:
		if s.err != nil {
			t.Fatalf("submit: %v", s.err)
		}
		if s.out.Seal != reason || !reflect.DeepEqual(s.out.Members, members) {
			t.Fatalf("generation sealed by %q with %v, want %q with %v", s.out.Seal, s.out.Members, reason, members)
		}
		return s.out
	case <-time.After(5 * time.Second):
		t.Fatalf("generation %v never sealed (want %q)", members, reason)
		return nil
	}
}

// The three teams of the scenario tests: fixed scopes, a new change id (and
// so a new signature) every round.
var (
	teamA = Path{"east", "x"}
	teamB = Path{"west", "y"}
	teamC = Path{"north", "z"}
)

// round submits one change per path, each only after the previous one has
// joined, and returns the pending submissions in path order. ids name the
// changes.
func round(t *testing.T, c *Composer, ids []string, paths ...Path) []<-chan submitted {
	t.Helper()
	chs := make([]<-chan submitted, len(paths))
	for i, p := range paths {
		chs[i] = submitAsync(context.Background(), c, node(ids[i], "t", p))
		if i < len(paths)-1 {
			waitPending(t, i+1)
		}
	}
	return chs
}

// rememberAB runs the cold first round of teams a and b: it must wait the
// whole window, and leaves {a, b} as the remembered cohort.
func rememberAB(t *testing.T, c *Composer, k *fakeClock) {
	t.Helper()
	chs := round(t, c, []string{"a1", "b1"}, teamA, teamB)
	waitPending(t, 2)
	k.advance(testWindow - time.Nanosecond)
	if len(chs[0]) != 0 || len(chs[1]) != 0 || k.timersFired() != 0 {
		t.Fatalf("cold generation sealed before its window: timers fired %d", k.timersFired())
	}
	k.advance(time.Nanosecond)
	out := sealed(t, chs[0], SealWindow, "a1", "b1")
	if sealed(t, chs[1], SealWindow, "a1", "b1") != out {
		t.Fatal("members of one generation received different outcomes")
	}
}

// TestCohortReturningPairSealsAtJoin is the tentpole: once {a, b} composed
// together, their next changes — new ids, new signatures, same scopes —
// seal at b's join. The window timer never fires for that generation.
func TestCohortReturningPairSealsAtJoin(t *testing.T) {
	rec := &solveRecorder{}
	c, k := fakeTimed(t, Config{Solve: rec.solve})
	rememberAB(t, c, k)

	for i, ids := range [][]string{{"a2", "b2"}, {"b3", "a3"}} {
		paths := []Path{teamA, teamB}
		if i == 1 { // the other submission order
			paths = []Path{teamB, teamA}
		}
		chs := round(t, c, ids, paths...)
		want := append([]string(nil), ids...)
		sort.Strings(want)
		sealed(t, chs[0], SealCohort, want...)
		sealed(t, chs[1], SealCohort, want...)
	}
	if k.timersFired() != 1 {
		t.Fatalf("window timer fired %d times, want 1 (the cold round only)", k.timersFired())
	}
	if len(rec.calls) != 3 {
		t.Fatalf("solver ran %d times, want 3 (one per round)", len(rec.calls))
	}
}

// TestCohortMissingPartner asserts a no-show costs exactly one full window
// and is then forgotten: the lone member's next change seals at its own
// join.
func TestCohortMissingPartner(t *testing.T) {
	rec := &solveRecorder{}
	c, k := fakeTimed(t, Config{Solve: rec.solve})
	rememberAB(t, c, k)

	a2 := submitAsync(context.Background(), c, node("a2", "t", teamA))
	waitPending(t, 1)
	k.advance(testWindow - time.Nanosecond)
	if len(a2) != 0 {
		t.Fatal("generation missing a cohort member sealed before its window")
	}
	k.advance(time.Nanosecond)
	sealed(t, a2, SealWindow, "a2")

	fired := k.timersFired()
	sealed(t, submitAsync(context.Background(), c, node("a3", "t", teamA)), SealCohort, "a3")
	if k.timersFired() != fired {
		t.Fatal("lone member's next generation waited for its window timer")
	}
}

// TestCohortNewcomer asserts a first-time submitter that opens a generation
// is merged with the returning cohort (there is one open generation, and
// it seals when the cohort is in), and is expected from then on.
func TestCohortNewcomer(t *testing.T) {
	rec := &solveRecorder{}
	c, k := fakeTimed(t, Config{Solve: rec.solve})
	rememberAB(t, c, k)

	chs := round(t, c, []string{"c2", "a2", "b2"}, teamC, teamA, teamB)
	for _, ch := range chs {
		sealed(t, ch, SealCohort, "a2", "b2", "c2")
	}
	if len(rec.calls) != 2 {
		t.Fatalf("solver ran %d times, want 2 (cold round + one merged generation)", len(rec.calls))
	}

	// {a, b} alone no longer cover: the generation stays open until c is in.
	chs = round(t, c, []string{"a3", "b3"}, teamA, teamB)
	waitPending(t, 2)
	chs = append(chs, submitAsync(context.Background(), c, node("c3", "t", teamC)))
	for _, ch := range chs {
		sealed(t, ch, SealCohort, "a3", "b3", "c3")
	}
	if k.timersFired() != 1 {
		t.Fatalf("window timer fired %d times, want 1 (the cold round only)", k.timersFired())
	}
}

// TestCohortWithdraw asserts a withdrawal never seals: before cover the
// generation stays open without the withdrawn member, and after the seal
// withdraw changes neither the generation nor the remembered cohort.
func TestCohortWithdraw(t *testing.T) {
	rec := &solveRecorder{}
	c, k := fakeTimed(t, Config{Solve: rec.solve})
	rememberAB(t, c, k)

	ctx, cancel := context.WithCancel(context.Background())
	a2 := submitAsync(ctx, c, node("a2", "t", teamA))
	waitPending(t, 1)
	cancel()
	if s := <-a2; !errors.Is(s.err, context.Canceled) {
		t.Fatalf("canceled Submit returned %v, want context.Canceled", s.err)
	}
	c.mu.Lock()
	g := c.cur
	c.mu.Unlock()
	if g == nil || g.sealed || len(g.deltas) != 0 || len(g.footprints) != 0 {
		t.Fatalf("withdrawal before cover must leave the generation open and empty: %+v", g)
	}

	// b alone does not cover {a, b}; the withdrawn a2 must not count.
	b2 := submitAsync(context.Background(), c, node("b2", "t", teamB))
	waitPending(t, 1)
	a3 := submitAsync(context.Background(), c, node("a3", "t", teamA))
	sealed(t, b2, SealCohort, "a3", "b2")
	sealed(t, a3, SealCohort, "a3", "b2")

	c.withdraw(g, "b2")
	c.mu.Lock()
	members, cohort := len(g.deltas), len(c.cohort)
	c.mu.Unlock()
	if members != 2 || cohort != 2 {
		t.Fatalf("withdraw after the seal left %d members, cohort of %d; want 2 and 2", members, cohort)
	}
	if len(rec.calls) != 2 {
		t.Fatalf("solver ran %d times, want 2", len(rec.calls))
	}
}

// TestCohortMaxBatchCapsFirst asserts MaxBatch still seals a generation
// that the (larger) remembered cohort would have kept open.
func TestCohortMaxBatchCapsFirst(t *testing.T) {
	rec := &solveRecorder{}
	c, k := fakeTimed(t, Config{Solve: rec.solve})
	chs := round(t, c, []string{"a1", "b1", "c1"}, teamA, teamB, teamC)
	waitPending(t, 3)
	k.advance(testWindow)
	for _, ch := range chs {
		sealed(t, ch, SealWindow, "a1", "b1", "c1")
	}

	// A cap below the cohort size cannot arise inside one composer (its
	// generations never outgrow its own cap), so lower it between rounds.
	c.mu.Lock()
	c.cfg.MaxBatch = 2
	c.mu.Unlock()
	chs = round(t, c, []string{"a2", "b2"}, teamA, teamB)
	sealed(t, chs[0], SealBatch, "a2", "b2")
	sealed(t, chs[1], SealBatch, "a2", "b2")
	if k.timersFired() != 1 {
		t.Fatalf("window timer fired %d times, want 1", k.timersFired())
	}
}

// TestCohortConcurrentRounds runs four teams through rounds of truly
// concurrent submissions on real timers (run under -race): after the cold
// round every round must be one generation of all four, sealed by the
// cohort rule well inside the window.
func TestCohortConcurrentRounds(t *testing.T) {
	rec := &solveRecorder{}
	c := testComposer(t, Config{Window: 200 * time.Millisecond, Solve: rec.solve})
	const teams, rounds = 4, 40
	for r := 0; r < rounds; r++ {
		outs := make([]*Outcome, teams)
		var wg sync.WaitGroup
		for i := 0; i < teams; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				d := node(fmt.Sprintf("chg-%d-%d", r, i), "t", Path{"m", fmt.Sprint(i)})
				out, err := c.Submit(context.Background(), d, Reject)
				if err != nil {
					t.Errorf("round %d team %d: %v", r, i, err)
					return
				}
				outs[i] = out
			}(i)
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		for i, out := range outs {
			if out != outs[0] || len(out.Members) != teams {
				t.Fatalf("round %d: team %d got %v, team 0 got %v", r, i, out.Members, outs[0].Members)
			}
		}
		want := SealCohort
		if r == 0 {
			want = SealWindow
		}
		if outs[0].Seal != want {
			t.Fatalf("round %d sealed by %q, want %q", r, outs[0].Seal, want)
		}
	}
	if len(rec.calls) != rounds {
		t.Fatalf("solver ran %d times, want %d", len(rec.calls), rounds)
	}
}

// TestFootprint asserts the footprint is where a delta acts and nothing
// else: signatures, change ids and tenants do not move it, attributes and
// paths do.
func TestFootprint(t *testing.T) {
	base := NewDelta("chg-1", "t1").AddAttr(teamA, "sw", 1).AddNode(teamB, 2).Canon()
	same := []*Delta{
		NewDelta("chg-2", "t2").AddNode(teamB, 9).AddAttr(teamA, "sw", 7).Canon(),
		// Two signatures on one (path, attr) are still one place.
		NewDelta("chg-3", "").AddAttr(teamA, "sw", 1).AddAttr(teamA, "sw", 5).AddNode(teamB, 2).Canon(),
	}
	for _, d := range same {
		if d.footprint() != base.footprint() {
			t.Errorf("footprint of %+v differs from %+v", d.Ops, base.Ops)
		}
	}
	differ := []*Delta{
		NewDelta("chg-1", "t1").AddAttr(teamA, "cfg", 1).AddNode(teamB, 2).Canon(), // other attribute
		NewDelta("chg-1", "t1").AddNode(teamA, 1).AddNode(teamB, 2).Canon(),        // whole node, not one attribute
		NewDelta("chg-1", "t1").AddAttr(teamA, "sw", 1).Canon(),                    // subset
		NewDelta("chg-1", "t1").AddAttr(teamA, "sw", 1).AddNode(teamC, 2).Canon(),  // other path
		NewDelta("chg-1", "t1").AddAttr(Path{"east"}, "xsw", 1).AddNode(teamB, 2).Canon(),
	}
	for _, d := range differ {
		if d.footprint() == base.footprint() {
			t.Errorf("footprint of %+v equals %+v", d.Ops, base.Ops)
		}
	}
}

// scriptStep is one step of a random arrival script: a join (d set), a
// withdrawal of an earlier change (withdraw set), or time passing.
type scriptStep struct {
	d        *Delta
	withdraw string
	dt       time.Duration
}

// scriptPaths is a small tree, so random deltas both conflict (ancestor
// claims) and recur (the same few scopes).
var scriptPaths = []Path{
	{"east"}, {"east", "x"}, {"east", "y"}, {"west"}, {"west", "y"},
}

// randomScript draws n steps. With unique set every delta gets a footprint
// of its own (a step-numbered attribute), so no cohort is ever covered.
func randomScript(rng *rand.Rand, n int, unique bool) []scriptStep {
	var steps []scriptStep
	var ids []string
	for i := 0; i < n; i++ {
		switch r := rng.Intn(10); {
		case r < 6:
			id := fmt.Sprintf("chg-%d", i)
			d := NewDelta(id, "t")
			for j := rng.Intn(4) / 3; j >= 0; j-- { // mostly one scope a change
				p := scriptPaths[rng.Intn(len(scriptPaths))]
				if unique {
					d.AddAttr(p, fmt.Sprintf("u%d", i), rng.Uint64())
				} else {
					d.AddNode(p, rng.Uint64())
				}
			}
			steps = append(steps, scriptStep{d: d.Canon()})
			ids = append(ids, id)
		case r < 7 && len(ids) > 0:
			steps = append(steps, scriptStep{withdraw: ids[rng.Intn(len(ids))]})
		default:
			steps = append(steps, scriptStep{dt: time.Duration(rng.Int63n(int64(testWindow)))})
		}
	}
	// Let the last generation run out its window.
	return append(steps, scriptStep{dt: testWindow})
}

// scriptRun is what a script did to a composer: a transcript of every
// join's verdict and every solve's members, plus the longest any member
// waited and what sealed the generations.
type scriptRun struct {
	transcript []string
	longest    time.Duration
	reasons    map[SealReason]int
}

// runScript drives a composer through the script one step at a time at
// its join/withdraw/timer surface (no goroutines: every seal runs inside
// the step that caused it). before, when set, runs ahead of every step.
func runScript(t *testing.T, strategy Strategy, maxBatch int, steps []scriptStep, before func(*Composer)) scriptRun {
	t.Helper()
	run := scriptRun{reasons: map[SealReason]int{}}
	joinedAt := map[string]time.Duration{}
	joinedIn := map[string]*generation{}
	var k *fakeClock
	solve := func(_ context.Context, _ *Delta, members []*Delta) (any, error) {
		if diag := strategy.Validate(members); diag != nil {
			t.Errorf("sealed generation does not validate: %v", diag)
		}
		var ids []string
		for _, m := range members {
			ids = append(ids, m.ChangeID)
			if w := k.elapsed() - joinedAt[m.ChangeID]; w > run.longest {
				run.longest = w
			}
		}
		sort.Strings(ids)
		run.transcript = append(run.transcript, fmt.Sprint("solve ", ids))
		return nil, nil
	}
	c, k := fakeTimed(t, Config{Strategy: strategy, MaxBatch: maxBatch, Solve: solve})
	var gens []*generation
	for _, s := range steps {
		if before != nil {
			before(c)
		}
		switch {
		case s.d != nil:
			joinedAt[s.d.ChangeID] = k.elapsed()
			g, diag, err := c.join(s.d)
			if err != nil {
				t.Fatalf("join %s: %v", s.d.ChangeID, err)
			}
			if diag != nil {
				run.transcript = append(run.transcript, "conflict "+s.d.ChangeID)
				continue
			}
			run.transcript = append(run.transcript, "joined "+s.d.ChangeID)
			joinedIn[s.d.ChangeID] = g
			if len(gens) == 0 || gens[len(gens)-1] != g {
				gens = append(gens, g)
			}
		case s.withdraw != "":
			if g := joinedIn[s.withdraw]; g != nil {
				c.withdraw(g, s.withdraw)
			}
		default:
			k.advance(s.dt)
		}
	}
	for _, g := range gens {
		select {
		case <-g.done:
		default:
			t.Errorf("generation %s never completed", g.id)
		}
		if g.out != nil {
			run.reasons[g.out.Seal]++
		}
	}
	return run
}

// windowOnlyModel re-states the composer as it was before it remembered
// anything — a generation seals when its window runs out or MaxBatch is
// reached by a later join, and on nothing else — and returns the
// transcript that composer produces for the script.
func windowOnlyModel(strategy Strategy, maxBatch int, steps []scriptStep) []string {
	var transcript []string
	var now, deadline time.Duration
	var open bool
	var members []*Delta
	seal := func() {
		open = false
		if len(members) == 0 {
			return
		}
		var ids []string
		for _, m := range members {
			ids = append(ids, m.ChangeID)
		}
		sort.Strings(ids)
		transcript = append(transcript, fmt.Sprint("solve ", ids))
		members = nil
	}
	for _, s := range steps {
		switch {
		case s.d != nil && !open:
			open, deadline, members = true, now+testWindow, []*Delta{s.d}
			transcript = append(transcript, "joined "+s.d.ChangeID)
		case s.d != nil:
			cand := append(append([]*Delta(nil), members...), s.d)
			if strategy.Validate(cand) != nil {
				transcript = append(transcript, "conflict "+s.d.ChangeID)
				continue
			}
			members = cand
			if maxBatch > 0 && len(members) >= maxBatch {
				seal() // inside the join: the solve precedes the join's verdict
			}
			transcript = append(transcript, "joined "+s.d.ChangeID)
		case s.withdraw != "":
			for i, m := range members {
				if m.ChangeID == s.withdraw {
					members = append(members[:i:i], members[i+1:]...)
					break
				}
			}
		default:
			now += s.dt
			if open && deadline <= now {
				seal()
			}
		}
	}
	return transcript
}

var scriptStrategies = []Strategy{SubtreeStrategy{}, NodeStrategy{}, AttributeStrategy{}}

// TestColdComposerIsWindowOnly is the differential: a composer with nothing
// to remember — its memory wiped before every step, or fed footprints that
// never recur — must be indistinguishable from the window-only composer it
// replaced: same joins and refusals, same generations, same solve count,
// and no generation sealed by the cohort rule.
func TestColdComposerIsWindowOnly(t *testing.T) {
	wipe := func(c *Composer) {
		c.mu.Lock()
		c.cohort = nil
		c.mu.Unlock()
	}
	for _, tc := range []struct {
		name   string
		unique bool
		before func(*Composer)
	}{
		{"memory-wiped", false, wipe},
		{"footprints-never-recur", true, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 6; seed++ {
				rng := rand.New(rand.NewSource(seed))
				strategy := scriptStrategies[seed%3]
				maxBatch := []int{0, 0, 3}[rng.Intn(3)]
				steps := randomScript(rng, 300, tc.unique)
				got := runScript(t, strategy, maxBatch, steps, tc.before)
				want := windowOnlyModel(strategy, maxBatch, steps)
				if !reflect.DeepEqual(got.transcript, want) {
					i := 0
					for i < len(want) && i < len(got.transcript) && got.transcript[i] == want[i] {
						i++
					}
					t.Fatalf("seed %d: transcripts diverge at entry %d (%d vs %d entries): got %q, want %q", seed, i,
						len(got.transcript), len(want), append(got.transcript, "<end>")[i], append(want, "<end>")[i])
				}
				if got.reasons[SealCohort] != 0 {
					t.Fatalf("seed %d: %d generations sealed by a cohort the composer should not have", seed, got.reasons[SealCohort])
				}
			}
		})
	}
}

// TestCohortNeverWaitsPastWindow is the property: whatever the arrival
// script — recurring scopes, conflicts, withdrawals, caps — no member waits
// longer than the window, every sealed generation validates under its
// strategy (checked in the solve), every generation completes, and the
// cohort rule does fire on these scripts.
func TestCohortNeverWaitsPastWindow(t *testing.T) {
	cohortSeals := 0
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		strategy := scriptStrategies[seed%3]
		maxBatch := []int{0, 0, 2, 4}[rng.Intn(4)]
		run := runScript(t, strategy, maxBatch, randomScript(rng, 200, false), nil)
		if run.longest > testWindow {
			t.Fatalf("seed %d: a member waited %v, longer than the %v window", seed, run.longest, testWindow)
		}
		cohortSeals += run.reasons[SealCohort]
	}
	if cohortSeals == 0 {
		t.Fatal("no script ever sealed by cohort: the property ran on window-only behaviour")
	}
}
