package solver

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"cornet/internal/plan/model"
)

// denseMiniModel shrinks the Section-4.2 dense template (uniformity +
// localize + conflicts, leftovers allowed) to a size a complete search
// finishes in milliseconds, so parallel-vs-sequential slot equality is
// provable rather than sampled. 20 items in 4 groups make that search
// some 56k nodes, enough for thieves to steal below the root every run
// (at 11k nodes TestSolverStealCounters saw root-only steals one run in
// seven).
func denseMiniModel() *model.Model {
	return denseTemplate("dense-mini", 20, 5, 4, 6, 4)
}

// forceStealing makes every search node publish a stealable descriptor
// (the low-water check never saturates), maximizing steal traffic on
// arbitrarily tiny subtrees. Restores the tuned value on cleanup.
func forceStealing(t *testing.T) {
	t.Helper()
	old := wsPublishLowWater
	wsPublishLowWater = 1 << 30
	t.Cleanup(func() { wsPublishLowWater = old })
}

// TestSolverWorkStealingMatchesSequentialDense is the strong determinism
// contract on the dense template: a completed parallel search reports
// not just the sequential cost but the exact sequential slot vector —
// the rank-ordered incumbent tie-break pins the canonical solution
// independent of worker count and steal interleaving.
func TestSolverWorkStealingMatchesSequentialDense(t *testing.T) {
	limits := Options{MaxNodes: 30_000_000, TimeLimit: time.Minute}
	seqOpt := limits
	seqOpt.Parallelism = 1
	seq, err := SolveContext(context.Background(), denseMiniModel(), seqOpt)
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	if !seq.Optimal {
		t.Fatal("sequential search did not complete; shrink the model")
	}
	for _, workers := range []int{2, 4, 8} {
		parOpt := limits
		parOpt.Parallelism = workers
		par, err := SolveContext(context.Background(), denseMiniModel(), parOpt)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !par.Optimal {
			t.Fatalf("workers=%d: parallel search incomplete", workers)
		}
		if par.Cost != seq.Cost {
			t.Fatalf("workers=%d: cost = %d, sequential = %d", workers, par.Cost, seq.Cost)
		}
		if !reflect.DeepEqual(par.Slots, seq.Slots) {
			t.Fatalf("workers=%d: slots = %v, sequential = %v", workers, par.Slots, seq.Slots)
		}
	}
}

// TestSolverForcedStealDeterminism runs with stealing forced at every
// node — descriptors published for even two-decision subtrees — and
// still demands the exact sequential slot vector. Exercised under -race
// by the make race suite.
func TestSolverForcedStealDeterminism(t *testing.T) {
	forceStealing(t)
	limits := Options{MaxNodes: 30_000_000, TimeLimit: time.Minute}
	models := []func() *model.Model{denseMiniModel}
	for seed := int64(1); seed <= 5; seed++ {
		s := seed
		models = append(models, func() *model.Model { return randomModel(s) })
	}
	for mi, mk := range models {
		seqOpt := limits
		seqOpt.Parallelism = 1
		seq, err := SolveContext(context.Background(), mk(), seqOpt)
		if err != nil {
			t.Fatalf("model %d sequential: %v", mi, err)
		}
		for _, workers := range []int{2, 4, 8} {
			parOpt := limits
			parOpt.Parallelism = workers
			par, err := SolveContext(context.Background(), mk(), parOpt)
			if err != nil {
				t.Fatalf("model %d workers=%d: %v", mi, workers, err)
			}
			if par.Cost != seq.Cost {
				t.Fatalf("model %d workers=%d: cost = %d, sequential = %d", mi, workers, par.Cost, seq.Cost)
			}
			if !reflect.DeepEqual(par.Slots, seq.Slots) {
				t.Fatalf("model %d workers=%d: slots = %v, sequential = %v", mi, workers, par.Slots, seq.Slots)
			}
		}
	}
}

// TestSolverStealCounters checks the steal/split/replay accounting: a
// forced-steal parallel run reports positive split and steal counts, the
// OnSteal hook receives exactly the schedule's totals, and a sequential
// solve reports zeros without invoking the hook.
func TestSolverStealCounters(t *testing.T) {
	forceStealing(t)
	var hookSteals, hookSplits, hookReplay int64
	hookCalls := 0
	opt := Options{
		Parallelism: 4, MaxNodes: 30_000_000, TimeLimit: time.Minute,
		OnSteal: func(steals, splits, replayNodes int64) {
			hookCalls++
			hookSteals, hookSplits, hookReplay = steals, splits, replayNodes
		},
	}
	par, err := SolveContext(context.Background(), denseMiniModel(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if par.Splits == 0 {
		t.Fatal("forced-steal parallel run published no subtree descriptors")
	}
	if par.Steals == 0 {
		t.Fatal("forced-steal parallel run recorded no steals")
	}
	if par.Steals > 0 && par.ReplayNodes == 0 {
		t.Fatal("steals happened but no prefix decisions were replayed")
	}
	if hookCalls != 1 {
		t.Fatalf("OnSteal called %d times, want 1", hookCalls)
	}
	if hookSteals != par.Steals || hookSplits != par.Splits || hookReplay != par.ReplayNodes {
		t.Fatalf("OnSteal(%d, %d, %d) != schedule counters (%d, %d, %d)",
			hookSteals, hookSplits, hookReplay, par.Steals, par.Splits, par.ReplayNodes)
	}

	seqOpt := Options{Parallelism: 1, OnSteal: func(_, _, _ int64) { hookCalls++ }}
	seq, err := SolveContext(context.Background(), denseMiniModel(), seqOpt)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Steals != 0 || seq.Splits != 0 || seq.ReplayNodes != 0 {
		t.Fatalf("sequential solve reported steal counters: %+v", seq)
	}
	if hookCalls != 1 {
		t.Fatal("OnSteal invoked for a sequential solve")
	}
}

// TestSolverCancellationMidSteal cancels a forced-steal parallel search
// mid-flight: every worker — thieves included — must observe the hard
// stop promptly and surface the wrapped context error.
func TestSolverCancellationMidSteal(t *testing.T) {
	forceStealing(t)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := SolveContext(ctx, hardModel(), Options{Parallelism: 4, TimeLimit: time.Hour, MaxNodes: 1 << 60})
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want wrapped context.Canceled", err)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("workers took %v to observe cancellation", elapsed)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("parallel solve did not return after mid-steal cancellation")
	}
}

// TestSolverDeadlineReturnsIncumbentMidSteal drives the soft-deadline
// path under forced stealing: a ctx deadline undercutting TimeLimit must
// yield the best incumbent found (not an error), marked non-optimal.
func TestSolverDeadlineReturnsIncumbentMidSteal(t *testing.T) {
	forceStealing(t)
	// Generous budget: the soft clamp leaves 10% headroom, and under
	// -race a worker can burn tens of milliseconds between budget checks.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	m := hardModel()
	sched, err := SolveContext(ctx, m, Options{Parallelism: 4, TimeLimit: time.Hour, MaxNodes: 1 << 60})
	if err != nil {
		t.Fatalf("soft deadline returned error: %v", err)
	}
	if sched.Optimal {
		t.Fatal("deadline-bounded search claimed optimality")
	}
	if v := m.Check(sched.Slots); len(v) > 0 {
		t.Fatalf("incumbent violates the model: %v", v[0])
	}
}
